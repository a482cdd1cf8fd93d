/* Executable entry: boot the libOS pieces, then hand control to the linked
 * guest exactly once.
 *
 * Boot order: linear memory from wasm_memory_spec, tar filesystem (the
 * embedded fs_image_* symbols, or an empty root), fd table with stdio and the
 * "/" preopen, guest args/env, then wasm_init and wasm__start on a dedicated
 * big-stack thread. SEAM_INVOKE=<export> calls a nullary export instead of
 * _start and prints its result bits.
 *
 * The guest thread's stack is mapped here, with a PROT_NONE guard region
 * under it. Generated code bounds call depth with a budget argument, not
 * with the stack, but frames can be large enough (thousands of spilled
 * locals) to use up GUEST_STACK_SIZE before the budget runs out; such a
 * frame then faults in the guard, which trap.c maps to trap 7 rather than
 * a crash. The guest object is compiled with -fstack-clash-protection, so
 * no frame can step over the guard. The guest thread installs the fault
 * handler and its alternate signal stack before it runs any guest code. */
#include "rt.h"

#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

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

static void *guest_main(void *arg)
{
    (void)arg;
    const char *invoke = getenv("SEAM_INVOKE");
    if (rt_fault_install() != 0)
        die("cannot install the trap handler");
    prof_enter(P_GUEST);
    wasm_init();
    if (invoke && *invoke) {
        if (!&wasm_exports_count)
            die("this executable carries no export table");
        for (uint32_t i = 0; i < wasm_exports_count; i++) {
            if (strcmp(wasm_exports[i].name, invoke) == 0) {
                print_result(wasm_exports[i].sig, wasm_exports[i].fn);
                prof_enter(P_NONE);
                return NULL;
            }
        }
        fprintf(stderr, "seam-rt: no export named %s\n", invoke);
        exit(1);
    }
    if (!wasm__start)
        die("guest has no _start export; use SEAM_INVOKE=<export>");
    wasm__start();
    prof_enter(P_NONE);
    return NULL;
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

    pthread_t guest;
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstack(&attr, guard + GUEST_STACK_GUARD, GUEST_STACK_SIZE);
    if (pthread_create(&guest, &attr, guest_main, NULL) != 0)
        die("cannot start guest thread");
    /* SIGTERM/SIGINT go to the guest thread, so their exit never runs the
     * atexit handlers beside a guest call in progress */
    sigset_t stop;
    sigemptyset(&stop);
    sigaddset(&stop, SIGTERM);
    sigaddset(&stop, SIGINT);
    pthread_sigmask(SIG_BLOCK, &stop, NULL);
    pthread_join(guest, NULL);
    fflush(NULL);
    return 0;
}
