/* Hand-written native twins of the benchmark's Wasm kernels.
 *
 * Each computes exactly what the matching export of the kernels guest
 * computes (u32 wrap-around arithmetic, same data, same order), without
 * the Wasm safety checks: no bounds checks, no call-depth counter, no
 * call_indirect type check. The benchmark compiles it with the kernel
 * sizes as -D flags and passes the seed-derived constants as arguments:
 *
 *   kernels_native memloop SEED K
 *   kernels_native fib C
 *   kernels_native indirect SEED P0..P7 K0..K7
 *   kernels_native grow TOUCH
 *
 * It prints the result the way seam's SEAM_INVOKE does: i32:0x%08x. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#define WASM_PAGE 65536u

static uint32_t arg(char **argv, int i)
{
    return (uint32_t)strtoul(argv[i], NULL, 10);
}

static inline uint32_t rotl(uint32_t x, unsigned k)
{
    return (x << k) | (x >> (32 - k));
}

static uint32_t mem[MEM_WORDS];

static uint32_t memloop(uint32_t seed, uint32_t k)
{
    uint32_t x = seed;
    for (uint32_t i = 0; i < MEM_WORDS; i++) {
        x = x * 1664525u + 1013904223u;
        mem[i] = x;
    }
    x = 0;
    for (uint32_t pass = 0; pass < MEM_PASSES; pass++) {
        for (uint32_t i = 0; i < MEM_WORDS; i++) {
            uint32_t y = mem[(i ^ x) & (MEM_WORDS - 1)];
            x = y * k + (x >> 13) + pass;
            mem[i] = x;
        }
    }
    x = 0;
    for (uint32_t i = 0; i < MEM_WORDS; i++)
        x = rotl(x, 5) ^ mem[i];
    return x;
}

static uint32_t fib_c;

__attribute__((noinline)) static uint32_t fib_rec(uint32_t n)
{
    if (n < 2)
        return n + fib_c;
    return fib_rec(n - 1) + fib_rec(n - 2);
}

static uint32_t ks[8];
typedef uint32_t (*op_fn)(uint32_t, uint32_t);
static uint32_t op0(uint32_t a, uint32_t i) { return a + (i ^ ks[0]); }
static uint32_t op1(uint32_t a, uint32_t i) { return a ^ (i * ks[1]); }
static uint32_t op2(uint32_t a, uint32_t i) { (void)i; return rotl(a, 5) + ks[2]; }
static uint32_t op3(uint32_t a, uint32_t i) { return a * ks[3] + i; }
static uint32_t op4(uint32_t a, uint32_t i) { return (a >> 3) ^ (i + ks[4]); }
static uint32_t op5(uint32_t a, uint32_t i) { return a - (i | ks[5]); }
static uint32_t op6(uint32_t a, uint32_t i) { (void)i; return rotl(a ^ ks[6], 11); }
static uint32_t op7(uint32_t a, uint32_t i) { return (a + ks[7]) ^ (i << 2); }
static op_fn table[8];

static uint32_t indirect(uint32_t seed)
{
    uint32_t acc = seed;
    for (uint32_t i = 0; i < IND_ITERS; i++)
        acc = table[i & 7](acc, i);
    return acc;
}

/* mirrors mem.c: reserve up front, commit one Wasm page per grow */
static uint32_t grow(uint32_t touch)
{
    size_t reserve = (size_t)(BASE_PAGES + GROW_PAGES) * WASM_PAGE;
    uint8_t *base = mmap(NULL, reserve, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED || mprotect(base, (size_t)BASE_PAGES * WASM_PAGE, PROT_READ | PROT_WRITE))
        return 0xffffffffu;
    uint32_t pages = BASE_PAGES;
    for (uint32_t n = 0; n < GROW_PAGES; n++) {
        if (mprotect(base + (size_t)pages * WASM_PAGE, WASM_PAGE, PROT_READ | PROT_WRITE) != 0)
            return 0xffffffffu;
        base[(size_t)pages * WASM_PAGE + touch] = (uint8_t)n;
        pages++;
    }
    uint32_t acc = 0;
    for (uint32_t n = 0; n < GROW_PAGES; n++)
        acc = acc * 31u + base[(size_t)(n + BASE_PAGES) * WASM_PAGE + touch];
    return acc + pages;
}

int main(int argc, char **argv)
{
    static op_fn ops[8] = {op0, op1, op2, op3, op4, op5, op6, op7};
    uint32_t r;
    if (argc == 4 && strcmp(argv[1], "memloop") == 0) {
        r = memloop(arg(argv, 2), arg(argv, 3));
    } else if (argc == 3 && strcmp(argv[1], "fib") == 0) {
        fib_c = arg(argv, 2);
        r = fib_rec(FIB_N);
    } else if (argc == 19 && strcmp(argv[1], "indirect") == 0) {
        for (int j = 0; j < 8; j++) {
            table[j] = ops[arg(argv, 3 + j) & 7];
            ks[j] = arg(argv, 11 + j);
        }
        r = indirect(arg(argv, 2));
    } else if (argc == 3 && strcmp(argv[1], "grow") == 0) {
        r = grow(arg(argv, 2));
    } else {
        fprintf(stderr, "usage: kernels_native memloop|fib|indirect|grow ARGS...\n");
        return 2;
    }
    printf("i32:0x%08x\n", r);
    return 0;
}
