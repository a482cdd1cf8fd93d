/* NOSYS stubs for the ABI rows the runtime does not implement, so any
 * guest built against a standard toolchain links; each logs once on first
 * use. The list and the parameter types come from the generated abi.h. */
#include "rt.h"
#include "abi.h"

#include <stdio.h>

#pragma GCC diagnostic ignored "-Wunused-parameter"

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

SEAM_ABI_NOSYS(NOSYS_STUB)
