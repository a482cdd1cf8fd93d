/* Wasm traps: the message and the 128+code exit, whether generated code
 * calls runtime_trap() itself or a hardware fault stands in for a check.
 *
 * Generated code has no bounds check and no stack check of its own. An
 * access outside committed linear memory faults inside mem.c's PROT_NONE
 * reservation, and a frame that overflows the guest stack faults in
 * main.c's guard region. Each registers its range here with the trap code
 * a fault there means; the SIGSEGV/SIGBUS handler, on an alternate signal
 * stack so that it still runs when the guest stack is used up, maps the
 * fault address to that trap. A fault anywhere else is a bug in seam, not
 * a Wasm trap: the handler restores the default action and re-raises the
 * signal, so the process still dies by it. */
#include "rt.h"

#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

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
    fprintf(stderr, "seam-rt: trap: %s (code %u)\n", name, code);
    fflush(NULL);
    exit(128 + (int)code);
}

/* [lo, hi) per trap code; written at boot, before any guest code runs */
static struct { uintptr_t lo, hi; } fault_regions[TRAP_STACK_EXHAUSTED + 1];

/* static, not malloc'd: it lives as long as the process, so it needs no
 * allocation that can fail, and its .bss pages stay untouched until a fault */
static uint8_t alt_stack[64 * 1024] __attribute__((aligned(16)));

void rt_fault_region(uint32_t code, const void *lo, size_t len)
{
    fault_regions[code].lo = (uintptr_t)lo;
    fault_regions[code].hi = (uintptr_t)lo + len;
}

static void on_fault(int sig, siginfo_t *si, void *ctx)
{
    (void)ctx;
    uintptr_t addr = (uintptr_t)si->si_addr;
    for (uint32_t code = 1; code <= TRAP_STACK_EXHAUSTED; code++)
        if (addr >= fault_regions[code].lo && addr < fault_regions[code].hi)
            runtime_trap(code);
    signal(sig, SIG_DFL);
    raise(sig);
}

int rt_fault_install(void)
{
    stack_t ss = {.ss_sp = alt_stack, .ss_size = sizeof alt_stack};
    if (sigaltstack(&ss, NULL) != 0)
        return -1;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_fault;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGSEGV, &sa, NULL) != 0 || sigaction(SIGBUS, &sa, NULL) != 0)
        return -1;
    return 0;
}
