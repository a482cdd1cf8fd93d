/* The one unit that defines every ABI symbol, from the generated abi.h.
 *
 * A row with a profile bucket gets an entry that calls its hand-written
 * body wasi_<name>: with profiling off one load, one branch and a tail
 * jump; with it on, out of line inside a scope of the row's bucket. A
 * NOSYS row gets a stub that logs once on first use. proc_exit, which never
 * returns, is defined in wasi_core.c. */
#include "rt.h"
#include "abi.h"

#include <stdio.h>

#pragma GCC diagnostic ignored "-Wunused-parameter"

/* The scoped path is noinline. It may as well be cold: the linker places
 * cold (.text.unlikely) code ahead of the guest's .text, but that starts
 * on a page boundary, so no runtime code moves the guest's alignment. */
#define ENTRY(name, bucket, params, args)                                   \
    static __attribute__((noinline)) uint32_t scoped_##name params          \
    {                                                                       \
        prof_push(bucket);                                                  \
        uint32_t r = wasi_##name args;                                      \
        prof_pop();                                                         \
        return r;                                                           \
    }                                                                       \
    uint32_t name params                                                    \
    {                                                                       \
        if (__builtin_expect(prof_on, 0))                                   \
            return scoped_##name args;                                      \
        return wasi_##name args;                                            \
    }

#define NOSYS_STUB(name, params)                                            \
    uint32_t name params                                                    \
    {                                                                       \
        static int warned;                                                  \
        if (!warned) {                                                      \
            warned = 1;                                                     \
            fprintf(stderr, "seam-rt: WASI %s not implemented (NOSYS)\n",   \
                    #name);                                                 \
        }                                                                   \
        return W_NOSYS;                                                     \
    }

SEAM_ABI_ENTRIES(ENTRY)
SEAM_ABI_NOSYS(NOSYS_STUB)
