/* The runtime's own C library: memory and string functions, getenv, the
 * vDSO clock, a formatter for seam-rt: messages, signal set-up, and the
 * stack switch that gives the process one exit path.
 *
 * rt_exit is that path. proc_exit, a trap, the guest's return and
 * SIGTERM/SIGINT all take it: the held sends go out, then the profile is
 * written, then the process leaves. From the guest stack it leaves by
 * switching back to main's stack, so that main returns the status to
 * whatever called it: start.c's entry, which ends the process with
 * exit_group, or a C library's, whose exit runs its own handlers first. */
#include "rt.h"

#define STR_(x) #x
#define STR(x) STR_(x)

/* ---- memory and strings ---- */

#if defined(__x86_64__)
/* rep movsb/stosb: one instruction, which cc cannot turn back into a call;
 * CPUs with fast strings (ERMS, FSRM) run short copies at speed as well */
void *memcpy(void *dst, const void *src, size_t n)
{
    void *d = dst;
    __asm__ volatile("rep movsb" : "+D"(d), "+S"(src), "+c"(n) : : "memory");
    return dst;
}

void *memset(void *dst, int c, size_t n)
{
    void *d = dst;
    __asm__ volatile("rep stosb" : "+D"(d), "+c"(n) : "a"(c) : "memory");
    return dst;
}
#else
/* byte loops; -fno-tree-loop-distribute-patterns (runtime CFLAGS) keeps cc
 * from turning them back into calls to themselves */
void *memcpy(void *dst, const void *src, size_t n)
{
    uint8_t *d = dst;
    const uint8_t *s = src;
    while (n--)
        *d++ = *s++;
    return dst;
}

void *memset(void *dst, int c, size_t n)
{
    uint8_t *d = dst;
    while (n--)
        *d++ = (uint8_t)c;
    return dst;
}
#endif

int memcmp(const void *a, const void *b, size_t n)
{
    const uint8_t *x = a, *y = b;
    for (; n; n--, x++, y++)
        if (*x != *y)
            return *x - *y;
    return 0;
}

size_t strlen(const char *s)
{
    const char *e = s;
    while (*e)
        e++;
    return (size_t)(e - s);
}

size_t strnlen(const char *s, size_t max)
{
    size_t n = 0;
    while (n < max && s[n])
        n++;
    return n;
}

int strcmp(const char *a, const char *b)
{
    while (*a && *a == *b)
        a++, b++;
    return (uint8_t)*a - (uint8_t)*b;
}

char *strchr(const char *s, int c)
{
    for (;; s++) {
        if (*s == (char)c)
            return (char *)s;
        if (!*s)
            return NULL;
    }
}

char *strrchr(const char *s, int c)
{
    const char *last = NULL;
    for (;; s++) {
        if (*s == (char)c)
            last = s;
        if (!*s)
            return (char *)last;
    }
}

char *strcpy(char *dst, const char *src)
{
    return memcpy(dst, src, strlen(src) + 1);
}

/* ---- environment ---- */

static char **environ_block;

void rt_set_environ(char **envp)
{
    environ_block = envp;
}

char *getenv(const char *name)
{
    for (char **e = environ_block; e && *e; e++) {
        const char *a = name, *b = *e;
        while (*a && *a == *b)
            a++, b++;
        if (!*a && *b == '=')
            return (char *)b + 1;
    }
    return NULL;
}

/* ---- clock ---- */

#if defined(__x86_64__)
#define VDSO_CLOCK "__vdso_clock_gettime"
#else
#define VDSO_CLOCK "__kernel_clock_gettime"
#endif

static long (*vdso_clock)(long clock, struct timespec *ts);

/* a function the vDSO at eh exports, through its DT_HASH, which both
 * architectures' vDSOs carry */
static void *vdso_lookup(const Elf64_Ehdr *eh, const char *name)
{
    const Elf64_Phdr *ph = (const void *)((uintptr_t)eh + eh->e_phoff);
    uintptr_t load = 0;
    const Elf64_Dyn *dyn = NULL;
    for (int i = eh->e_phnum - 1; i >= 0; i--) { /* the first PT_LOAD wins */
        if (ph[i].p_type == PT_LOAD)
            load = (uintptr_t)eh + ph[i].p_offset - ph[i].p_vaddr;
        else if (ph[i].p_type == PT_DYNAMIC)
            dyn = (const void *)((uintptr_t)eh + ph[i].p_offset);
    }
    const Elf64_Sym *sym = NULL;
    const char *str = NULL;
    const uint32_t *hash = NULL;
    for (; dyn && dyn->d_tag != DT_NULL; dyn++) {
        if (dyn->d_tag == DT_SYMTAB)
            sym = (const void *)(load + dyn->d_un.d_ptr);
        else if (dyn->d_tag == DT_STRTAB)
            str = (const void *)(load + dyn->d_un.d_ptr);
        else if (dyn->d_tag == DT_HASH)
            hash = (const void *)(load + dyn->d_un.d_ptr);
    }
    if (!sym || !str || !hash)
        return NULL;
    for (uint32_t i = 0; i < hash[1]; i++) /* nchain: the symbol count */
        if ((sym[i].st_info & 0xf) == STT_FUNC && sym[i].st_shndx != SHN_UNDEF
            && strcmp(str + sym[i].st_name, name) == 0)
            return (void *)(load + sym[i].st_value);
    return NULL;
}

void rt_vdso_init(const uintptr_t *auxv)
{
    for (; auxv[0] != AT_NULL; auxv += 2)
        if (auxv[0] == AT_SYSINFO_EHDR && auxv[1])
            vdso_clock = vdso_lookup((const Elf64_Ehdr *)auxv[1], VDSO_CLOCK);
}

uint64_t rt_now_ns(int clock)
{
    struct timespec ts;
    if (!vdso_clock || vdso_clock(clock, &ts) != 0)
        SYS(__NR_clock_gettime, clock, &ts, 0, 0, 0, 0);
    return (uint64_t)ts.tv_sec * 1000000000ull + (uint64_t)ts.tv_nsec;
}

/* ---- messages ---- */

void rt_print(int fd, const char *fmt, ...)
{
    char buf[1024];
    size_t n = 0;
#define PUT(c) (n < sizeof buf ? (void)(buf[n++] = (char)(c)) : (void)0)
    va_list ap;
    va_start(ap, fmt);
    for (; *fmt; fmt++) {
        if (*fmt != '%') {
            PUT(*fmt);
            continue;
        }
        char pad = *++fmt == '0' ? '0' : ' ';
        int width = 0, wide = 0;
        while (*fmt >= '0' && *fmt <= '9')
            width = width * 10 + (*fmt++ - '0');
        for (; *fmt == 'l' || *fmt == 'z'; fmt++)
            wide = 1; /* long, long long and size_t are all 64 bits */
        if (*fmt == 's') {
            for (const char *s = va_arg(ap, const char *); *s; s++)
                PUT(*s);
            continue;
        }
        uint64_t v;
        if (*fmt == 'd') {
            int64_t d = wide ? va_arg(ap, long long) : va_arg(ap, int);
            if (d < 0)
                PUT('-');
            v = d < 0 ? -(uint64_t)d : (uint64_t)d;
        } else {
            v = wide ? va_arg(ap, unsigned long long) : va_arg(ap, unsigned);
        }
        unsigned base = *fmt == 'x' ? 16 : 10;
        char digits[20];
        int k = 0;
        do
            digits[k++] = "0123456789abcdef"[v % base];
        while ((v /= base) != 0);
        for (; width > k; width--)
            PUT(pad);
        while (k)
            PUT(digits[--k]);
    }
    va_end(ap);
#undef PUT
    for (size_t done = 0; done < n;) {
        long r = sys_write(fd, buf + done, n - done);
        if (r > 0)
            done += (size_t)r;
        else if (r != -EINTR)
            break;
    }
}

/* ---- signals ---- */

/* the kernel's struct sigaction: the handler's return goes through the
 * restorer, which makes the rt_sigreturn call */
struct k_sigaction {
    void *handler;
    unsigned long flags;
    void (*restorer)(void);
    uint64_t mask;
};

#if defined(__x86_64__)
__asm__(".pushsection .text\n"
        ".p2align 4\n"
        "sig_restorer:\n"
        "\tmov $" STR(__NR_rt_sigreturn) ", %eax\n"
        "\tsyscall\n"
        ".popsection\n");
extern void sig_restorer(void) __attribute__((visibility("hidden")));
#define RESTORER SA_RESTORER, sig_restorer
#else /* aarch64: without a restorer the kernel returns through the vDSO's */
#define RESTORER 0, NULL
#endif

long rt_sigaction(int sig, void *handler, unsigned long flags)
{
    struct k_sigaction sa = {handler, flags | RESTORER, 0};
    return SYS(__NR_rt_sigaction, sig, &sa, NULL, sizeof sa.mask, 0, 0);
}

/* ---- the stack switch and the exit path ---- */

/* rt_switch(save, to) pushes the callee-saved registers, stores the stack
 * pointer in *save, loads to, and pops the registers saved there: a call
 * that returns on the other stack. A fresh stack holds a frame of zeroed
 * registers whose return address is the entry function. */
#if defined(__x86_64__)
__asm__(".pushsection .text\n"
        ".p2align 4\n"
        "rt_switch:\n"
        "\tpush %rbp\n\tpush %rbx\n\tpush %r12\n\tpush %r13\n\tpush %r14\n\tpush %r15\n"
        "\tmov %rsp, (%rdi)\n"
        "\tmov %rsi, %rsp\n"
        "\tpop %r15\n\tpop %r14\n\tpop %r13\n\tpop %r12\n\tpop %rbx\n\tpop %rbp\n"
        "\tret\n"
        ".popsection\n");
/* 6 registers, the return address, and the 8 bytes that leave the entry
 * with the stack aligned as after a call */
#define FRAME_WORDS 8
#define FRAME_ENTRY 6
#else
__asm__(".pushsection .text\n"
        ".p2align 4\n"
        "rt_switch:\n"
        "\tsub sp, sp, #160\n"
        "\tstp x19, x20, [sp, #0]\n\tstp x21, x22, [sp, #16]\n\tstp x23, x24, [sp, #32]\n"
        "\tstp x25, x26, [sp, #48]\n\tstp x27, x28, [sp, #64]\n\tstp x29, x30, [sp, #80]\n"
        "\tstp d8, d9, [sp, #96]\n\tstp d10, d11, [sp, #112]\n"
        "\tstp d12, d13, [sp, #128]\n\tstp d14, d15, [sp, #144]\n"
        "\tmov x9, sp\n\tstr x9, [x0]\n\tmov sp, x1\n"
        "\tldp x19, x20, [sp, #0]\n\tldp x21, x22, [sp, #16]\n\tldp x23, x24, [sp, #32]\n"
        "\tldp x25, x26, [sp, #48]\n\tldp x27, x28, [sp, #64]\n\tldp x29, x30, [sp, #80]\n"
        "\tldp d8, d9, [sp, #96]\n\tldp d10, d11, [sp, #112]\n"
        "\tldp d12, d13, [sp, #128]\n\tldp d14, d15, [sp, #144]\n"
        "\tadd sp, sp, #160\n"
        "\tret\n"
        ".popsection\n");
/* x19-x28, x29, x30 (the return address) and d8-d15 */
#define FRAME_WORDS 20
#define FRAME_ENTRY 11
#endif
extern void rt_switch(void **save, void *to) __attribute__((visibility("hidden")));

static void *boot_sp; /* main's stack while rt_run_on's entry runs */
static int exit_status;

int rt_run_on(void *stack_top, void (*entry)(void))
{
    uintptr_t *frame = (uintptr_t *)((uintptr_t)stack_top & ~(uintptr_t)15) - FRAME_WORDS;
    memset(frame, 0, FRAME_WORDS * sizeof *frame);
    frame[FRAME_ENTRY] = (uintptr_t)entry;
    rt_switch(&boot_sp, frame);
    return exit_status;
}

void rt_exit(int status)
{
    rt_flush_sends();
    prof_report();
    if (boot_sp) {
        void *abandoned;
        exit_status = status;
        rt_switch(&abandoned, boot_sp);
    }
    sys_exit_group(status);
}
