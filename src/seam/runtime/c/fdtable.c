/* The fd table, guest args/env, and the one path by which a WASI call moves
 * a guest iovec array through an fd of any kind.
 *
 * That path holds small sends back, as a unikernel's TCP stack does until
 * it next runs. A turn is the stretch between two flush points. A turn's
 * first send to a blocking socket goes out at once and makes that socket
 * the turn's; each later send to it in the turn that fits the free room of
 * one static HOLD_MAX buffer is copied there and reports its full count. A
 * send that does not fit goes out by sendmsg after the held bytes, and a
 * non-blocking socket's sends are never held. Every other host I/O is a
 * flush point (rt_flush_sends): reads, writes to another fd, poll_oneoff,
 * sched_yield, sock_accept/connect/shutdown, closing a socket, switching
 * O_NONBLOCK, and process exit. A failed flush drops the held bytes; the
 * socket's error state answers the guest's next call on it, as it does for
 * bytes the kernel took but could not deliver. */
#include "rt.h"

#define IOV_MAX UIO_MAXIOV

fd_entry rt_fdt[FD_TABLE_SIZE];

#define HOLD_MAX (16 * 1024)

static fd_entry *turn; /* the socket this turn has sent to, or NULL */
static size_t held;    /* bytes held for it in hold_buf */
/* static, not malloc'd: it needs no allocation that can fail, and its .bss
 * pages stay untouched until a turn holds bytes */
static uint8_t hold_buf[HOLD_MAX];

int rt_argc;
const char *rt_argv[RT_MAX_ARGS];
int rt_envc;
const char *rt_envv[RT_MAX_ARGS];

void rt_fd_init(void)
{
    /* only entries in use: clearing free (zero) ones would fault in every
     * page of the table */
    for (int i = 0; i < FD_TABLE_SIZE; i++)
        if (rt_fdt[i].kind != FK_FREE)
            memset(&rt_fdt[i], 0, sizeof rt_fdt[i]);
    turn = NULL;
    held = 0;
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

/* the held bytes to the turn's socket, which stays the turn's */
static void send_held(void)
{
    size_t n = held;
    if (!n)
        return;
    /* claimed before the send: an exit while it blocks finds nothing held,
     * so the exit path's flush neither repeats bytes nor blocks again */
    held = 0;
    int was = prof_enter(P_SOCKET);
    for (size_t done = 0; done < n;) {
        long r = sys_sendto(turn->host_fd, hold_buf + done, n - done, MSG_NOSIGNAL);
        if (r > 0)
            done += (size_t)r;
        else if (r != -EINTR)
            break;
    }
    prof_enter(was);
}

void rt_flush_sends(void)
{
    send_held();
    turn = NULL;
}

int rt_fd_set_nonblock(fd_entry *e, int nonblock)
{
    rt_flush_sends();
    long fl = sys_fcntl(e->host_fd, F_GETFL, 0);
    if (fl < 0)
        return (int)fl;
    return (int)sys_fcntl(e->host_fd, F_SETFL, nonblock ? (fl | O_NONBLOCK) : (fl & ~O_NONBLOCK));
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

static long iov_syscall(const fd_entry *e, int out, struct iovec *iov, uint32_t n, int flags)
{
    if (e->kind != FK_SOCKET)
        return out ? sys_writev(e->host_fd, iov, (int)n) : sys_readv(e->host_fd, iov, (int)n);
    struct msghdr m = {.msg_iov = iov, .msg_iovlen = n};
    return out ? sys_sendmsg(e->host_fd, &m, flags | MSG_NOSIGNAL)
               : sys_recvmsg(e->host_fd, &m, flags);
}

/* inlined into rt_iov_xfer, so that with profiling off its charge adds no call */
static inline __attribute__((always_inline)) uint32_t
iov_xfer(fd_entry *e, int out, uint32_t iovs, uint32_t iovs_len, int flags, uint32_t *moved)
{
    struct iovec iov[IOV_MAX];
    int nonblock = (e->fdflags & FDFLAG_NONBLOCK) != 0;
    uint64_t total = 0;
    int later = out && e == turn; /* a later send of this turn */
    if (!later) {
        rt_flush_sends();
        if (out && e->kind == FK_SOCKET && !nonblock)
            turn = e;
    }
    if (iovs_len > IOV_MAX) /* every bound is checked before the first byte moves */
        for (uint32_t i = 0; i < iovs_len; i++)
            lm_ptr(lm_get_u32(iovs + 8 * i), lm_get_u32(iovs + 8 * i + 4));
    for (uint32_t i = 0; i < iovs_len;) {
        uint32_t n = iovs_len - i < IOV_MAX ? iovs_len - i : IOV_MAX;
        size_t want = iov_gather(iov, iovs + 8 * i, n);
        i += n;
        if (later) {
            if (n == iovs_len && want <= HOLD_MAX - held) {
                for (uint32_t k = 0; k < n; k++) {
                    memcpy(hold_buf + held, iov[k].iov_base, iov[k].iov_len);
                    held += iov[k].iov_len;
                }
                *moved = (uint32_t)want;
                return W_SUCCESS;
            }
            send_held();
            later = 0;
        }
        struct iovec *cur = iov;
        size_t done = 0;
        while (done < want) {
            long r = iov_syscall(e, out, cur, n - (uint32_t)(cur - iov), flags);
            if (r < 0) {
                if (r == -EINTR && !nonblock)
                    continue;
                turn = NULL; /* a failed transfer ends the turn */
                *moved = (uint32_t)total;
                return total ? W_SUCCESS : rt_errno_to_wasi(r);
            }
            done += (size_t)r;
            total += (uint64_t)r;
            if (!out || nonblock || r == 0 || done == want)
                break; /* reads and non-blocking writes report the partial count */
            /* a blocking write resumes after its short write */
            for (; (size_t)r >= cur->iov_len; cur++)
                r -= (long)cur->iov_len;
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

/* a tar file's next bytes into the guest iovecs, up to the first one left
 * short; no host I/O, so neither charged nor a flush point */
static uint32_t tar_read(fd_entry *e, uint32_t iovs, uint32_t iovs_len)
{
    uint64_t total = 0;
    for (uint32_t i = 0; i < iovs_len; i++) {
        uint32_t buf = lm_get_u32(iovs + 8 * i);
        uint32_t len = lm_get_u32(iovs + 8 * i + 4);
        uint8_t *p = lm_ptr(buf, len);
        uint64_t avail = e->node->size - e->cursor;
        uint64_t take = len < avail ? len : avail;
        memcpy(p, e->node->content + e->cursor, (size_t)take);
        e->cursor += take;
        total += take;
        if (take < len)
            break;
    }
    return (uint32_t)total;
}

uint32_t rt_iov_xfer(fd_entry *e, int out, uint32_t iovs, uint32_t iovs_len, int flags,
                     uint32_t count_out)
{
    uint32_t r = W_SUCCESS, n;
    if (e->kind == FK_TARDIR)
        return W_ISDIR;
    if (e->kind == FK_TARFILE) {
        if (out)
            return W_ROFS;
        n = tar_read(e, iovs, iovs_len);
    } else if (e->kind == FK_SOCKET && e->sstate != SS_CONNECTED
               && (out || e->sstate != SS_SHUT)) {
        return W_NOTCONN;
    } else {
        /* the whole transfer, held sends and flush included, is host I/O:
         * socket on a socket, hostio on stdio */
        int was = prof_enter(e->kind == FK_SOCKET ? P_SOCKET : P_HOSTIO);
        r = iov_xfer(e, out, iovs, iovs_len, flags, &n);
        prof_enter(was);
    }
    if (r == W_SUCCESS)
        lm_set_u32(count_out, n);
    return r;
}

/* Split the variable var at sep into out, keeping the pieces in buf; empty
 * pieces are skipped. A value that does not fit buf or out ends the process
 * rather than reach the guest cut short. */
static int split_var(const char *var, char *buf, size_t size, char sep, const char **out)
{
    const char *v = getenv(var);
    int count = 0;
    if (!v)
        return 0;
    if (strlen(v) >= size) {
        rt_print(2, "seam-rt: %s is %zu bytes, more than %zu\n", var, strlen(v), size - 1);
        rt_exit(1);
    }
    strcpy(buf, v);
    for (char *p = buf; *p;) {
        if (*p == sep) {
            *p++ = 0;
            continue;
        }
        if (count == RT_MAX_ARGS) {
            rt_print(2, "seam-rt: %s holds more than %d entries\n", var, RT_MAX_ARGS);
            rt_exit(1);
        }
        out[count++] = p;
        while (*p && *p != sep)
            p++;
    }
    return count;
}

void rt_args_init(void)
{
    static char args_buf[4096];
    static char env_buf[4096];
    rt_argc = split_var("GUEST_ARGS", args_buf, sizeof args_buf, ' ', rt_argv);
    rt_envc = split_var("GUEST_ENV", env_buf, sizeof env_buf, ',', rt_envv);
}
