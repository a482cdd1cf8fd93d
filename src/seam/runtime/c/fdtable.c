/* The fd table, guest args/env, and the one path by which a WASI call moves
 * a guest iovec array through a host fd. */
#include "rt.h"

#include <errno.h>
#include <fcntl.h>
#include <limits.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>

fd_entry rt_fdt[FD_TABLE_SIZE];

int rt_argc;
const char *rt_argv[RT_MAX_ARGS];
int rt_envc;
const char *rt_envv[RT_MAX_ARGS];

void rt_fd_init(void)
{
    memset(rt_fdt, 0, sizeof rt_fdt);
    for (int i = 0; i < 3; i++) {
        rt_fdt[i].kind = FK_STDIO;
        rt_fdt[i].host_fd = i;
    }
    rt_fdt[3].kind = FK_TARDIR;
    rt_fdt[3].node = &rt_fs_nodes[0];
}

int rt_fd_alloc(void)
{
    for (int i = 4; i < FD_TABLE_SIZE; i++)
        if (rt_fdt[i].kind == FK_FREE)
            return i;
    return -1;
}

fd_entry *rt_fd_get(uint32_t fd)
{
    if (fd >= FD_TABLE_SIZE || rt_fdt[fd].kind == FK_FREE)
        return NULL;
    return &rt_fdt[fd];
}

int rt_fd_set_nonblock(fd_entry *e, int nonblock)
{
    int fl = fcntl(e->host_fd, F_GETFL, 0);
    if (fl < 0)
        return -1;
    return fcntl(e->host_fd, F_SETFL, nonblock ? (fl | O_NONBLOCK) : (fl & ~O_NONBLOCK));
}

/* the next n (<= IOV_MAX) guest iovecs {buf: u32, len: u32} at iovs as host
 * iovecs, every (buf, len) through lm_ptr; returns their total length */
static size_t iov_gather(struct iovec *out, uint32_t iovs, uint32_t n)
{
    size_t want = 0;
    for (uint32_t i = 0; i < n; i++) {
        uint32_t buf = lm_get_u32(iovs + 8 * i);
        uint32_t len = lm_get_u32(iovs + 8 * i + 4);
        out[i].iov_base = lm_ptr(buf, len);
        out[i].iov_len = len;
        want += len;
    }
    return want;
}

static ssize_t iov_syscall(const fd_entry *e, int out, struct iovec *iov, uint32_t n, int flags)
{
    if (e->kind != FK_SOCKET)
        return out ? writev(e->host_fd, iov, (int)n) : readv(e->host_fd, iov, (int)n);
    struct msghdr m = {.msg_iov = iov, .msg_iovlen = n};
    return out ? sendmsg(e->host_fd, &m, flags | MSG_NOSIGNAL) : recvmsg(e->host_fd, &m, flags);
}

uint32_t rt_iov_xfer(fd_entry *e, int out, uint32_t iovs, uint32_t iovs_len, int flags,
                     uint32_t *moved)
{
    struct iovec iov[IOV_MAX];
    int nonblock = (e->fdflags & FDFLAG_NONBLOCK) != 0;
    uint64_t total = 0;
    if (iovs_len > IOV_MAX) /* every bound is checked before the first byte moves */
        for (uint32_t i = 0; i < iovs_len; i++)
            lm_ptr(lm_get_u32(iovs + 8 * i), lm_get_u32(iovs + 8 * i + 4));
    for (uint32_t i = 0; i < iovs_len;) {
        uint32_t n = iovs_len - i < IOV_MAX ? iovs_len - i : IOV_MAX;
        size_t want = iov_gather(iov, iovs + 8 * i, n);
        i += n;
        struct iovec *cur = iov;
        size_t done = 0;
        while (done < want) {
            ssize_t r = iov_syscall(e, out, cur, n - (uint32_t)(cur - iov), flags);
            if (r < 0) {
                if (errno == EINTR && !nonblock)
                    continue;
                *moved = (uint32_t)total;
                return total ? W_SUCCESS : rt_errno_to_wasi(errno);
            }
            done += (size_t)r;
            total += (uint64_t)r;
            if (!out || nonblock || r == 0 || done == want)
                break; /* reads and non-blocking writes report the partial count */
            /* a blocking write resumes after its short write */
            for (; (size_t)r >= cur->iov_len; cur++)
                r -= (ssize_t)cur->iov_len;
            cur->iov_base = (uint8_t *)cur->iov_base + r;
            cur->iov_len -= (size_t)r;
        }
        /* a peek always starts at the head of the queue: one syscall */
        if (done < want || (flags & MSG_PEEK))
            break;
    }
    *moved = (uint32_t)total;
    return W_SUCCESS;
}

/* Split the variable var at sep into out, keeping the pieces in buf; a
 * value that does not fit buf or out ends the process rather than reach
 * the guest cut short. */
static int split_var(const char *var, char *buf, size_t size, const char *sep, const char **out)
{
    const char *v = getenv(var);
    int count = 0;
    if (!v)
        return 0;
    if (strlen(v) >= size) {
        fprintf(stderr, "seam-rt: %s is %zu bytes, more than %zu\n", var, strlen(v), size - 1);
        exit(1);
    }
    strcpy(buf, v);
    char *save = NULL;
    for (char *tok = strtok_r(buf, sep, &save); tok; tok = strtok_r(NULL, sep, &save)) {
        if (count == RT_MAX_ARGS) {
            fprintf(stderr, "seam-rt: %s holds more than %d entries\n", var, RT_MAX_ARGS);
            exit(1);
        }
        out[count++] = tok;
    }
    return count;
}

void rt_args_init(void)
{
    static char args_buf[4096];
    static char env_buf[4096];
    rt_argc = split_var("GUEST_ARGS", args_buf, sizeof args_buf, " ", rt_argv);
    rt_envc = split_var("GUEST_ENV", env_buf, sizeof env_buf, ",", rt_envv);
}
