/* Executable entry: boot the libOS pieces, then hand control to the linked
 * guest exactly once.
 *
 * Boot order: linear memory from wasm_memory_spec, tar filesystem (the
 * embedded fs_image_* symbols, or an empty root), fd table with stdio and the
 * "/" preopen, guest args/env, the fault handler, then wasm_init and
 * wasm__start on a big stack. SEAM_INVOKE=<export> calls a nullary export
 * instead of _start and prints its result bits.
 *
 * The process has one thread. The guest stack is mapped here, with a
 * PROT_NONE guard region under it, and main switches to it with
 * swapcontext; the guest's return switches back. Signals, traps, proc_exit
 * and the atexit handlers therefore never run beside a guest call. Generated
 * code bounds call depth with a budget argument, not with the stack, but
 * frames can be large enough (thousands of spilled locals) to use up
 * GUEST_STACK_SIZE before the budget runs out; such a frame then faults in
 * the guard, which trap.c maps to trap 7 rather than a crash. The guest
 * object is compiled with -fstack-clash-protection, so no frame can step
 * over the guard. */
#include "rt.h"

#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <ucontext.h>

extern void wasm_init(void);
extern void wasm__start(void) __attribute__((weak));
extern const uint32_t wasm_memory_spec[2];

struct sr_export { const char *name; const char *sig; void (*fn)(void); };
extern const struct sr_export wasm_exports[] __attribute__((weak));
extern const uint32_t wasm_exports_count __attribute__((weak));

extern const uint8_t fs_image_start[] __attribute__((weak));
extern const uint64_t fs_image_size __attribute__((weak));

#define GUEST_STACK_SIZE (256ull * 1024 * 1024)
#define GUEST_STACK_GUARD (1ull * 1024 * 1024)

static void die(const char *msg)
{
    fprintf(stderr, "seam-rt: %s\n", msg);
    exit(1);
}

static void on_signal(int sig)
{
    /* exit() so the atexit handlers still run: held sends, then the profile */
    exit(128 + sig);
}

static void mount_fs(void)
{
    if (&fs_image_size != NULL && fs_image_start != NULL && fs_image_size > 0) {
        if (rt_fs_mount(fs_image_start, fs_image_size) != 0)
            die("corrupt embedded tar image");
        return;
    }
    rt_fs_mount(NULL, 0); /* empty root */
}

static void print_result(const char *sig, void (*fn)(void))
{
    const char *colon = strchr(sig, ':');
    char res = colon && colon[1] ? colon[1] : 0;
    if (colon != sig)
        die("SEAM_INVOKE export takes parameters; only nullary exports are callable");
    switch (res) {
    case 0: {
        ((void (*)(void))fn)();
        printf("void\n");
        break;
    }
    case 'i': {
        uint32_t v = ((uint32_t (*)(void))fn)();
        printf("i32:0x%08x\n", v);
        break;
    }
    case 'I': {
        uint64_t v = ((uint64_t (*)(void))fn)();
        printf("i64:0x%016llx\n", (unsigned long long)v);
        break;
    }
    case 'f': {
        float v = ((float (*)(void))fn)();
        union { float f; uint32_t i; } u;
        u.f = v;
        printf("f32:0x%08x\n", u.i);
        break;
    }
    case 'F': {
        double v = ((double (*)(void))fn)();
        union { double f; uint64_t i; } u;
        u.f = v;
        printf("f64:0x%016llx\n", (unsigned long long)u.i);
        break;
    }
    default:
        die("unknown export signature");
    }
    fflush(stdout);
}

static void guest_main(void)
{
    const char *invoke = getenv("SEAM_INVOKE");
    prof_enter(P_GUEST);
    wasm_init();
    if (invoke && *invoke) {
        if (!&wasm_exports_count)
            die("this executable carries no export table");
        for (uint32_t i = 0; i < wasm_exports_count; i++) {
            if (strcmp(wasm_exports[i].name, invoke) == 0) {
                print_result(wasm_exports[i].sig, wasm_exports[i].fn);
                prof_enter(P_NONE);
                return;
            }
        }
        fprintf(stderr, "seam-rt: no export named %s\n", invoke);
        exit(1);
    }
    if (!wasm__start)
        die("guest has no _start export; use SEAM_INVOKE=<export>");
    wasm__start();
    prof_enter(P_NONE);
}

int main(void)
{
    signal(SIGPIPE, SIG_IGN);
    signal(SIGTERM, on_signal);
    signal(SIGINT, on_signal);
    prof_init();
    if (rt_mem_init(wasm_memory_spec[0], wasm_memory_spec[1]) != 0)
        die("linear memory reservation failed");
    mount_fs();
    rt_fd_init();
    atexit(rt_flush_sends); /* runs before prof_init's report */
    rt_args_init();

    uint8_t *guard = mmap(NULL, GUEST_STACK_GUARD + GUEST_STACK_SIZE, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (guard == MAP_FAILED ||
        mprotect(guard + GUEST_STACK_GUARD, GUEST_STACK_SIZE, PROT_READ | PROT_WRITE) != 0)
        die("cannot map the guest stack");
    rt_fault_region(TRAP_STACK_EXHAUSTED, guard, GUEST_STACK_GUARD);
    if (rt_fault_install() != 0)
        die("cannot install the trap handler");

    /* locals, not static: two static contexts would dirty two .bss pages */
    ucontext_t boot, guest;
    if (getcontext(&guest) != 0)
        die("cannot switch to the guest stack");
    guest.uc_stack.ss_sp = guard + GUEST_STACK_GUARD;
    guest.uc_stack.ss_size = GUEST_STACK_SIZE;
    guest.uc_link = &boot;
    makecontext(&guest, guest_main, 0);
    if (swapcontext(&boot, &guest) != 0)
        die("cannot switch to the guest stack");
    fflush(NULL);
    return 0;
}
