/* Linear memory, the guard regions around it and the guest stack, and the
 * traps a fault there stands for.
 *
 * One reservation of 2^33 + 64 KiB is made up front with PROT_NONE and
 * MAP_NORESERVE, the base is aligned to the 65536-byte page size inside it,
 * and the base never changes afterwards; growth only flips reserved pages
 * to read-write. A Wasm effective address is a u32 base plus a u32 offset,
 * at most 2^33 - 2, and an access is at most 8 bytes wide, so every access
 * generated code can make lands below base + 2^33 + 6, inside the
 * reservation (the alignment slack leaves at least 2^33 + 4 KiB after the
 * base). Anything past the committed pages faults. The cost is 8 GiB of
 * address space per process, never backed by memory, so the process must
 * not run under a low RLIMIT_AS. Host code (the WASI functions) must never
 * fault and goes through lm_ptr, which keeps an explicit check.
 *
 * Generated code has no bounds check and no stack check of its own: an
 * access outside committed linear memory faults inside the reservation,
 * and a frame that overflows the guest stack faults in main.c's guard
 * region. Each range is registered here with the trap code a fault there
 * means; the SIGSEGV/SIGBUS handler, on an alternate signal stack so that
 * it still runs when the guest stack is used up, maps the fault address to
 * that trap. A fault anywhere else is a bug in seam, not a Wasm trap: the
 * handler restores the default action and re-raises the signal, so the
 * process dies by it without taking the exit path. */
#include "rt.h"

#define WASM_PAGE 65536ull
#define RESERVE ((1ull << 33) + WASM_PAGE)

static uint8_t *lm_base;
static uint64_t lm_committed; /* pages */
static uint64_t lm_max;       /* pages */
static void *lm_raw;          /* the whole reservation */

int rt_mem_init(uint32_t initial_pages, uint32_t max_pages)
{
    if (lm_base)
        return -1;
    if (initial_pages > max_pages)
        return -1;
    lm_max = max_pages;
    long raw = sys_mmap(NULL, RESERVE, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE);
    if (raw < 0)
        return -1;
    lm_raw = (void *)raw;
    uintptr_t aligned = ((uintptr_t)lm_raw + WASM_PAGE - 1) & ~(uintptr_t)(WASM_PAGE - 1);
    lm_base = (uint8_t *)aligned;
    lm_committed = 0;
    rt_fault_region(TRAP_OUT_OF_BOUNDS, lm_raw, RESERVE);
    if (initial_pages) {
        if (sys_mprotect(lm_base, (size_t)initial_pages * WASM_PAGE, PROT_READ | PROT_WRITE) != 0)
            return -1;
        lm_committed = initial_pages;
    }
    return 0;
}

uint8_t *memory_base(void)
{
    return lm_base;
}

uint32_t memory_grow(uint32_t delta_pages)
{
    int was = prof_enter(P_MEMORY);
    uint32_t prev = (uint32_t)lm_committed;
    if (delta_pages != 0) {
        /* fresh anonymous pages read as zero once committed */
        if (lm_committed + delta_pages <= lm_max
            && sys_mprotect(lm_base + lm_committed * WASM_PAGE, (size_t)delta_pages * WASM_PAGE,
                            PROT_READ | PROT_WRITE) == 0)
            lm_committed += delta_pages;
        else
            prev = 0xffffffffu;
    }
    prof_enter(was);
    return prev;
}

uint64_t rt_mem_committed_bytes(void)
{
    return lm_committed * WASM_PAGE;
}

void *lm_ptr(uint32_t addr, uint32_t len)
{
    uint64_t end = (uint64_t)addr + (uint64_t)len;
    if (end > lm_committed * WASM_PAGE)
        runtime_trap(TRAP_OUT_OF_BOUNDS);
    return lm_base + addr;
}

uint32_t lm_get_u32(uint32_t addr)
{
    uint32_t v;
    memcpy(&v, lm_ptr(addr, 4), 4);
    return v;
}

void lm_set_u32(uint32_t addr, uint32_t v)
{
    memcpy(lm_ptr(addr, 4), &v, 4);
}

void lm_set_u64(uint32_t addr, uint64_t v)
{
    memcpy(lm_ptr(addr, 8), &v, 8);
}

/* test hook: tear down and re-create linear memory so property tests can
 * run many independent grow sequences in one process */
int rt_mem_reset(uint32_t initial_pages, uint32_t max_pages)
{
    if (lm_base) {
        sys_munmap(lm_raw, RESERVE);
        lm_base = NULL;
        lm_raw = NULL;
        lm_committed = 0;
        lm_max = 0;
    }
    return rt_mem_init(initial_pages, max_pages);
}

/* ---- traps ---- */

static const char *trap_names[] = {
    [TRAP_OUT_OF_BOUNDS] = "out of bounds memory access",
    [TRAP_DIV_BY_ZERO] = "integer divide by zero",
    [TRAP_INT_OVERFLOW] = "integer overflow",
    [TRAP_UNREACHABLE] = "unreachable executed",
    [TRAP_CALL_TYPE] = "indirect call type mismatch",
    [TRAP_TABLE_OOB] = "table index out of bounds",
    [TRAP_STACK_EXHAUSTED] = "call stack exhausted",
};

void runtime_trap(uint32_t code)
{
    const char *name = "unknown trap";
    if (code >= 1 && code <= 7 && trap_names[code])
        name = trap_names[code];
    rt_print(2, "seam-rt: trap: %s (code %u)\n", name, code);
    rt_exit(128 + (int)code);
}

/* [lo, hi) per trap code; written at boot, before any guest code runs */
static struct { uintptr_t lo, hi; } fault_regions[TRAP_STACK_EXHAUSTED + 1];

/* static: it lives as long as the process, needs no allocation that can
 * fail, and its .bss pages stay untouched until a fault */
static uint8_t alt_stack[64 * 1024] __attribute__((aligned(16)));

void rt_fault_region(uint32_t code, const void *lo, size_t len)
{
    fault_regions[code].lo = (uintptr_t)lo;
    fault_regions[code].hi = (uintptr_t)lo + len;
}

static void on_fault(int sig, rt_siginfo *si, void *ctx)
{
    (void)ctx;
    uintptr_t addr = (uintptr_t)si->si_addr;
    for (uint32_t code = 1; code <= TRAP_STACK_EXHAUSTED; code++)
        if (addr >= fault_regions[code].lo && addr < fault_regions[code].hi)
            runtime_trap(code);
    /* pending until this handler returns, then delivered with the default
     * action */
    rt_sigaction(sig, SIG_DFL, 0);
    sys_kill((int)sys_getpid(), sig);
}

int rt_fault_install(void)
{
    struct { void *sp; int flags; size_t size; } ss = {alt_stack, 0, sizeof alt_stack};
    if (sys_sigaltstack(&ss) != 0)
        return -1;
    if (rt_sigaction(SIGSEGV, on_fault, SA_SIGINFO | SA_ONSTACK) != 0
        || rt_sigaction(SIGBUS, on_fault, SA_SIGINFO | SA_ONSTACK) != 0)
        return -1;
    return 0;
}
