/* The process entry of a seam executable, in place of a C library's start
 * files: _start passes the initial stack to rt_start, which makes the
 * static PIE position-correct and calls main.
 *
 * The kernel maps a static PIE at a random base and applies none of its
 * relocations, so until rt_start has applied them every stored address
 * (the sr_tab<T> tables, wasm_exports, string pointers in initialized
 * data) still holds its link-time value. rt_start therefore reads only
 * its arguments and PC-relative symbols: it walks _DYNAMIC for DT_RELA and
 * adds the load base to each R_*_RELATIVE slot. A static PIE carries no
 * other type; any other ends the process at boot with exit 1. It then
 * makes the PT_GNU_RELRO pages read-only again, so that the tables and the
 * export list cannot be written after start-up, and calls main(argc, argv,
 * envp), whose return is the exit status.
 *
 * This unit is linked only into the executable image, not into the test
 * library, and a link against a C library uses that library's start files
 * instead: main also runs under those. */
#include "sys.h"

extern Elf64_Dyn _DYNAMIC[] __attribute__((visibility("hidden")));
extern const Elf64_Ehdr __ehdr_start __attribute__((visibility("hidden")));
int main(int argc, char **argv, char **envp);

#if defined(__x86_64__)
__asm__(".pushsection .text\n"
        ".globl _start\n"
        ".type _start, @function\n"
        "_start:\n"
        "\txor %ebp, %ebp\n"
        "\tmov %rsp, %rdi\n"
        "\tand $-16, %rsp\n"
        "\tcall rt_start\n"
        "\thlt\n"
        ".popsection\n");
#define R_RELATIVE 8 /* R_X86_64_RELATIVE */
#else
__asm__(".pushsection .text\n"
        ".globl _start\n"
        ".type _start, %function\n"
        "_start:\n"
        "\tmov x29, #0\n"
        "\tmov x30, #0\n"
        "\tmov x0, sp\n"
        "\tbl rt_start\n"
        "\tbrk #0\n"
        ".popsection\n");
#define R_RELATIVE 1027 /* R_AARCH64_RELATIVE */
#endif

/* sp: argc, then argv, NULL, envp, NULL, and the auxiliary vector */
__attribute__((used, noreturn, visibility("hidden"))) void rt_start(uintptr_t *sp)
{
    int argc = (int)sp[0];
    char **argv = (char **)(sp + 1), **envp = argv + argc + 1, **p = envp;
    while (*p)
        p++;
    uintptr_t page = 4096;
    for (const uintptr_t *a = (const uintptr_t *)(p + 1); a[0] != AT_NULL; a += 2)
        if (a[0] == AT_PAGESZ)
            page = a[1];

    uintptr_t base = (uintptr_t)&__ehdr_start; /* linked at address 0 */
    const Elf64_Rela *rela = NULL;
    size_t count = 0;
    for (const Elf64_Dyn *d = _DYNAMIC; d->d_tag != DT_NULL; d++) {
        if (d->d_tag == DT_RELA)
            rela = (const Elf64_Rela *)(base + d->d_un.d_ptr);
        else if (d->d_tag == DT_RELASZ)
            count = d->d_un.d_val / sizeof *rela;
    }
    for (size_t i = 0; i < count; i++) {
        if (ELF64_R_TYPE(rela[i].r_info) != R_RELATIVE) {
            static const char msg[] = "seam-rt: unsupported relocation type\n";
            sys_write(2, msg, sizeof msg - 1);
            sys_exit_group(1);
        }
        *(uintptr_t *)(base + rela[i].r_offset) = base + (uintptr_t)rela[i].r_addend;
    }

    const Elf64_Phdr *ph = (const Elf64_Phdr *)(base + __ehdr_start.e_phoff);
    for (int i = 0; i < __ehdr_start.e_phnum; i++) {
        if (ph[i].p_type != PT_GNU_RELRO)
            continue;
        uintptr_t lo = (base + ph[i].p_vaddr) & -page;
        uintptr_t hi = (base + ph[i].p_vaddr + ph[i].p_memsz) & -page;
        if (hi > lo)
            sys_mprotect((void *)lo, hi - lo, PROT_READ);
    }
    sys_exit_group(main(argc, argv, envp));
}
