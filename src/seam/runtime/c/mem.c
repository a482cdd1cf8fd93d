/* Linear memory manager, and the bounds check of generated code.
 *
 * One reservation of 2^33 + 64 KiB is made up front with PROT_NONE and
 * MAP_NORESERVE, the base is aligned to the 65536-byte page size inside it,
 * and the base never changes afterwards; growth only flips reserved pages
 * to read-write. A Wasm effective address is a u32 base plus a u32 offset,
 * at most 2^33 - 2, and an access is at most 8 bytes wide, so every access
 * generated code can make lands below base + 2^33 + 6, inside the
 * reservation (the alignment slack leaves at least 2^33 + 4 KiB after the
 * base). Anything past the committed pages faults, and trap.c's handler
 * maps a fault in this range to trap 1: generated code needs no bounds
 * check. The cost is 8 GiB of address space per process, never backed by
 * memory, so the process must not run under a low RLIMIT_AS. Host code
 * (the WASI functions) must never fault and goes through lm_ptr, which
 * keeps an explicit check. */
#include "rt.h"

#include <stdio.h>
#include <string.h>
#include <sys/mman.h>

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
    lm_raw = mmap(NULL, RESERVE, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (lm_raw == MAP_FAILED) {
        lm_raw = NULL;
        return -1;
    }
    uintptr_t aligned = ((uintptr_t)lm_raw + WASM_PAGE - 1) & ~(uintptr_t)(WASM_PAGE - 1);
    lm_base = (uint8_t *)aligned;
    lm_committed = 0;
    rt_fault_region(TRAP_OUT_OF_BOUNDS, lm_raw, RESERVE);
    if (initial_pages) {
        if (mprotect(lm_base, (size_t)initial_pages * WASM_PAGE, PROT_READ | PROT_WRITE) != 0)
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
            && mprotect(lm_base + lm_committed * WASM_PAGE, (size_t)delta_pages * WASM_PAGE,
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
        munmap(lm_raw, RESERVE);
        lm_base = NULL;
        lm_raw = NULL;
        lm_committed = 0;
        lm_max = 0;
    }
    return rt_mem_init(initial_pages, max_pages);
}
