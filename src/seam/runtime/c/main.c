/* Executable entry: boot the libOS pieces, then hand control to the linked
 * guest exactly once.
 *
 * start.c's _start relocates the executable and calls main with argc, argv
 * and envp; the auxiliary vector follows envp, and gives main the vDSO's
 * clock. Boot order: the environment, the signal handlers, the profiler,
 * linear memory from wasm_memory_spec, tar filesystem (the embedded
 * fs_image_* symbols, or an empty root), fd table with stdio and the "/"
 * preopen, guest args/env, the fault handler, then wasm_init and
 * wasm__start on a big stack. SEAM_INVOKE=<export> calls a nullary export
 * instead of _start and prints its result bits.
 *
 * The process has one thread. The guest stack is mapped here, with a
 * PROT_NONE guard region under it, and main runs the guest on it with
 * rt_run_on; whatever ends the guest takes rt_exit, which switches back, and
 * main returns the exit status. Signals, traps and proc_exit therefore
 * never run beside a guest call. Generated code bounds call depth with a
 * budget argument, not with the stack, but frames can be large enough
 * (thousands of spilled locals) to use up GUEST_STACK_SIZE before the
 * budget runs out; such a frame then faults in the guard, which mem.c maps
 * to trap 7 rather than a crash. The guest object is compiled with
 * -fstack-clash-protection, so no frame can step over the guard. */
#include "rt.h"

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
    rt_print(2, "seam-rt: %s\n", msg);
    rt_exit(1);
}

static void on_signal(int sig)
{
    rt_exit(128 + sig);
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
        rt_print(1, "void\n");
        break;
    }
    case 'i': {
        uint32_t v = ((uint32_t (*)(void))fn)();
        rt_print(1, "i32:0x%08x\n", v);
        break;
    }
    case 'I': {
        uint64_t v = ((uint64_t (*)(void))fn)();
        rt_print(1, "i64:0x%016llx\n", (unsigned long long)v);
        break;
    }
    case 'f': {
        float v = ((float (*)(void))fn)();
        union { float f; uint32_t i; } u;
        u.f = v;
        rt_print(1, "f32:0x%08x\n", u.i);
        break;
    }
    case 'F': {
        double v = ((double (*)(void))fn)();
        union { double f; uint64_t i; } u;
        u.f = v;
        rt_print(1, "f64:0x%016llx\n", (unsigned long long)u.i);
        break;
    }
    default:
        die("unknown export signature");
    }
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
                rt_exit(0);
            }
        }
        rt_print(2, "seam-rt: no export named %s\n", invoke);
        rt_exit(1);
    }
    if (!wasm__start)
        die("guest has no _start export; use SEAM_INVOKE=<export>");
    wasm__start();
    prof_enter(P_NONE);
    rt_exit(0);
}

int main(int argc, char **argv, char **envp)
{
    (void)argc;
    (void)argv;
    char **auxv = envp;
    while (*auxv)
        auxv++;
    rt_set_environ(envp);
    rt_vdso_init((const uintptr_t *)(auxv + 1));
    rt_sigaction(SIGPIPE, SIG_IGN, 0);
    rt_sigaction(SIGTERM, on_signal, 0);
    rt_sigaction(SIGINT, on_signal, 0);
    prof_init();
    if (rt_mem_init(wasm_memory_spec[0], wasm_memory_spec[1]) != 0)
        die("linear memory reservation failed");
    mount_fs();
    rt_fd_init();
    rt_args_init();

    long guard = sys_mmap(NULL, GUEST_STACK_GUARD + GUEST_STACK_SIZE, PROT_NONE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK);
    if (guard < 0 || sys_mprotect((uint8_t *)guard + GUEST_STACK_GUARD, GUEST_STACK_SIZE,
                                  PROT_READ | PROT_WRITE) != 0)
        die("cannot map the guest stack");
    rt_fault_region(TRAP_STACK_EXHAUSTED, (void *)guard, GUEST_STACK_GUARD);
    if (rt_fault_install() != 0)
        die("cannot install the trap handler");
    return rt_run_on((uint8_t *)guard + GUEST_STACK_GUARD + GUEST_STACK_SIZE, guest_main);
}
