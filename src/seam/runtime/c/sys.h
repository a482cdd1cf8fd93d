/* The runtime's only way to the host: one system call instruction per
 * architecture, thin wrappers over it, and the few C library functions the
 * runtime uses, defined in sys.c. No C library is linked.
 *
 * A wrapper returns what the kernel returns: a result >= 0, or -errno; no
 * errno variable exists. Constants and structure layouts come from the
 * kernel's UAPI headers, which describe the system call ABI itself; the
 * handful those headers leave to the C library are defined here. */
#ifndef SEAM_SYS_H
#define SEAM_SYS_H

#include <stdarg.h>
#include <stddef.h>
#include <stdint.h>

#include <asm/byteorder.h>
#include <asm/ioctls.h>
#include <asm/socket.h>
#include <asm/unistd.h>
#include <linux/auxvec.h>
#include <linux/elf.h>
#include <linux/errno.h>
#include <linux/fcntl.h>
#include <linux/in.h>
#include <linux/mman.h>
#include <linux/poll.h>
#include <linux/tcp.h>
#include <linux/time.h>
#include <linux/uio.h>

#if defined(__x86_64__)
static inline long sys_call6(long n, long a, long b, long c, long d, long e, long f)
{
    register long r10 __asm__("r10") = d, r8 __asm__("r8") = e, r9 __asm__("r9") = f;
    long r;
    __asm__ volatile("syscall"
                     : "=a"(r)
                     : "a"(n), "D"(a), "S"(b), "d"(c), "r"(r10), "r"(r8), "r"(r9)
                     : "rcx", "r11", "memory");
    return r;
}
#elif defined(__aarch64__)
static inline long sys_call6(long n, long a, long b, long c, long d, long e, long f)
{
    register long x8 __asm__("x8") = n, x0 __asm__("x0") = a, x1 __asm__("x1") = b;
    register long x2 __asm__("x2") = c, x3 __asm__("x3") = d, x4 __asm__("x4") = e;
    register long x5 __asm__("x5") = f;
    __asm__ volatile("svc #0"
                     : "+r"(x0)
                     : "r"(x8), "r"(x1), "r"(x2), "r"(x3), "r"(x4), "r"(x5)
                     : "memory");
    return x0;
}
#else
#error "the runtime makes system calls on x86_64 and aarch64 only"
#endif

#define SYS(n, a, b, c, d, e, f) \
    sys_call6(n, (long)(a), (long)(b), (long)(c), (long)(d), (long)(e), (long)(f))

/* ---- what the C library would define ---- */
#define SIGINT 2
#define SIGBUS 7
#define SIGSEGV 11
#define SIGPIPE 13
#define SIGTERM 15
#define SIG_DFL ((void *)0)
#define SIG_IGN ((void *)1)
#define SA_SIGINFO 0x4ul
#define SA_RESTORER 0x04000000ul
#define SA_ONSTACK 0x08000000ul

#define AF_INET 2
#define SOCK_STREAM 1
#define SOCK_CLOEXEC O_CLOEXEC
#define MSG_PEEK 0x2
#define MSG_WAITALL 0x100
#define MSG_NOSIGNAL 0x4000
#define SHUT_RD 0
#define SHUT_WR 1
#define SHUT_RDWR 2

struct msghdr {
    void *msg_name;
    int msg_namelen;
    struct iovec *msg_iov;
    size_t msg_iovlen;
    void *msg_control;
    size_t msg_controllen;
    unsigned msg_flags;
};

/* the first fields of the kernel's siginfo: all a fault handler reads */
typedef struct {
    int si_signo, si_errno, si_code;
    void *si_addr;
} rt_siginfo;

/* ---- system calls ---- */
static inline long sys_write(int fd, const void *buf, size_t n)
{ return SYS(__NR_write, fd, buf, n, 0, 0, 0); }
static inline long sys_readv(int fd, const struct iovec *iov, int n)
{ return SYS(__NR_readv, fd, iov, n, 0, 0, 0); }
static inline long sys_writev(int fd, const struct iovec *iov, int n)
{ return SYS(__NR_writev, fd, iov, n, 0, 0, 0); }
static inline long sys_openat(int dirfd, const char *path, int flags, int mode)
{ return SYS(__NR_openat, dirfd, path, flags, mode, 0, 0); }
static inline long sys_close(int fd)
{ return SYS(__NR_close, fd, 0, 0, 0, 0, 0); }
static inline long sys_fcntl(int fd, int cmd, long arg)
{ return SYS(__NR_fcntl, fd, cmd, arg, 0, 0, 0); }
static inline long sys_ioctl(int fd, unsigned long req, void *arg)
{ return SYS(__NR_ioctl, fd, req, arg, 0, 0, 0); }
static inline long sys_ppoll(struct pollfd *fds, unsigned n, const struct timespec *timeout)
{ return SYS(__NR_ppoll, fds, n, timeout, 0, 8, 0); }
/* the mapping's address, or -errno: no user address reads negative */
static inline long sys_mmap(void *addr, size_t len, int prot, int flags)
{ return SYS(__NR_mmap, addr, len, prot, flags, -1, 0); }
static inline long sys_mprotect(void *addr, size_t len, int prot)
{ return SYS(__NR_mprotect, addr, len, prot, 0, 0, 0); }
static inline long sys_munmap(void *addr, size_t len)
{ return SYS(__NR_munmap, addr, len, 0, 0, 0, 0); }
static inline long sys_getrandom(void *buf, size_t n)
{ return SYS(__NR_getrandom, buf, n, 0, 0, 0, 0); }
static inline long sys_clock_getres(int clock, struct timespec *ts)
{ return SYS(__NR_clock_getres, clock, ts, 0, 0, 0, 0); }
static inline long sys_sigaltstack(const void *ss)
{ return SYS(__NR_sigaltstack, ss, 0, 0, 0, 0, 0); }
static inline long sys_kill(int pid, int sig)
{ return SYS(__NR_kill, pid, sig, 0, 0, 0, 0); }
static inline long sys_getpid(void)
{ return SYS(__NR_getpid, 0, 0, 0, 0, 0, 0); }
static inline __attribute__((noreturn)) void sys_exit_group(int status)
{
    for (;;)
        SYS(__NR_exit_group, status, 0, 0, 0, 0, 0);
}
static inline long sys_socket(int domain, int type, int proto)
{ return SYS(__NR_socket, domain, type, proto, 0, 0, 0); }
static inline long sys_setsockopt(int fd, int level, int name, const void *val, unsigned len)
{ return SYS(__NR_setsockopt, fd, level, name, val, len, 0); }
static inline long sys_bind(int fd, const void *addr, unsigned len)
{ return SYS(__NR_bind, fd, addr, len, 0, 0, 0); }
static inline long sys_listen(int fd, int backlog)
{ return SYS(__NR_listen, fd, backlog, 0, 0, 0, 0); }
static inline long sys_accept4(int fd, int flags)
{ return SYS(__NR_accept4, fd, 0, 0, flags, 0, 0); }
static inline long sys_connect(int fd, const void *addr, unsigned len)
{ return SYS(__NR_connect, fd, addr, len, 0, 0, 0); }
static inline long sys_shutdown(int fd, int how)
{ return SYS(__NR_shutdown, fd, how, 0, 0, 0, 0); }
static inline long sys_getsockname(int fd, void *addr, unsigned *len)
{ return SYS(__NR_getsockname, fd, addr, len, 0, 0, 0); }
static inline long sys_getpeername(int fd, void *addr, unsigned *len)
{ return SYS(__NR_getpeername, fd, addr, len, 0, 0, 0); }
static inline long sys_sendto(int fd, const void *buf, size_t n, int flags)
{ return SYS(__NR_sendto, fd, buf, n, flags, 0, 0); }
static inline long sys_sendmsg(int fd, const struct msghdr *m, int flags)
{ return SYS(__NR_sendmsg, fd, m, flags, 0, 0, 0); }
static inline long sys_recvmsg(int fd, struct msghdr *m, int flags)
{ return SYS(__NR_recvmsg, fd, m, flags, 0, 0, 0); }

/* ---- sys.c ---- */
/* handler is SIG_DFL, SIG_IGN or a function, run with only its own signal
 * blocked; returns 0 or -errno */
long rt_sigaction(int sig, void *handler, unsigned long flags);

/* clock 0 (realtime) or 1 (monotonic) in ns, through the vDSO once
 * rt_vdso_init found it, else by system call */
uint64_t rt_now_ns(int clock);
void rt_vdso_init(const uintptr_t *auxv);

/* getenv reads the block set here; main sets the process's own */
void rt_set_environ(char **envp);

/* one message, at most 1024 bytes, written whole to fd; it formats the
 * conversions in use: %s %d %u %x, with a 0 flag, a width, and l, ll or z */
void rt_print(int fd, const char *fmt, ...) __attribute__((format(printf, 2, 3)));

/* The runtime's C library names, hidden: linked into the test library they
 * bind its own calls and cannot interpose on those of the process loading
 * it. cc emits calls to memcpy and memset on its own. */
#define RT_HIDDEN __attribute__((visibility("hidden")))
RT_HIDDEN void *memcpy(void *dst, const void *src, size_t n);
RT_HIDDEN void *memset(void *dst, int c, size_t n);
RT_HIDDEN int memcmp(const void *a, const void *b, size_t n);
RT_HIDDEN size_t strlen(const char *s);
RT_HIDDEN size_t strnlen(const char *s, size_t max);
RT_HIDDEN int strcmp(const char *a, const char *b);
RT_HIDDEN char *strchr(const char *s, int c);
RT_HIDDEN char *strrchr(const char *s, int c);
RT_HIDDEN char *strcpy(char *dst, const char *src);
RT_HIDDEN char *getenv(const char *name);

#endif /* SEAM_SYS_H */
