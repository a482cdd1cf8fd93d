/* poll_oneoff: the only readiness multiplexer WASI offers; semantics are
 * POSIX poll over the subscribed fds plus the earliest clock deadline.
 *
 * Per-subscription failures (bad fd, unsupported clock) become events with
 * that errno rather than failing the call, per the preview1 ABI. Regular
 * tar files are always ready, like POSIX poll on regular files. */
#include "rt.h"
#include "abi.h"

#include <errno.h>
#include <poll.h>
#include <string.h>

#define EVT_CLOCK 0
#define EVT_FD_READ 1
#define EVT_FD_WRITE 2
#define SUBCLOCK_ABSTIME 1
#define EVTRW_HANGUP 1

struct sub {
    uint64_t userdata;
    uint8_t tag;
    uint32_t clock_id;
    uint64_t timeout;
    uint16_t clock_flags;
    uint32_t fd;
};

static void parse_sub(uint32_t addr, struct sub *s)
{
    const uint8_t *p = lm_ptr(addr, 48);
    memcpy(&s->userdata, p, 8);
    s->tag = p[8];
    if (s->tag == EVT_CLOCK) {
        memcpy(&s->clock_id, p + 16, 4);
        memcpy(&s->timeout, p + 24, 8);
        memcpy(&s->clock_flags, p + 40, 2);
    } else {
        memcpy(&s->fd, p + 16, 4);
    }
}

static uint32_t put_event(uint32_t events, uint32_t n, uint64_t userdata, uint16_t werrno,
                          uint8_t type, uint64_t nbytes, uint16_t flags)
{
    uint8_t *p = lm_ptr(events + 32 * n, 32);
    memset(p, 0, 32);
    memcpy(p, &userdata, 8);
    memcpy(p + 8, &werrno, 2);
    p[10] = type;
    memcpy(p + 16, &nbytes, 8);
    memcpy(p + 24, &flags, 2);
    return n + 1;
}

/* the monotonic-ns deadline of a clock subscription on clock 0 or 1: a
 * relative timeout counts from entry_mono, an absolute one from now_mono */
static uint64_t clock_deadline(const struct sub *s, uint64_t entry_mono, uint64_t now_mono)
{
    if (!(s->clock_flags & SUBCLOCK_ABSTIME))
        return entry_mono + s->timeout;
    uint64_t now_clk = rt_now_ns((int)s->clock_id);
    return now_mono + (s->timeout > now_clk ? s->timeout - now_clk : 0);
}

uint32_t wasi_poll_oneoff(uint32_t subs_addr, uint32_t events_addr, uint32_t nsubscriptions,
                          uint32_t nevents_out)
{
    if (nsubscriptions == 0 || nsubscriptions > 128)
        return W_INVAL;
    lm_ptr(events_addr, 32 * nsubscriptions); /* trap early if out of range */

    struct sub subs[128];
    for (uint32_t i = 0; i < nsubscriptions; i++)
        parse_sub(subs_addr + 48 * i, &subs[i]);

    rt_flush_sends(); /* the guest waits: what it sent leaves now */
    uint32_t n = 0;
    const uint64_t entry_mono = rt_now_ns(1); /* relative clock subs anchor here */

    for (;;) {
        n = 0;
        struct pollfd pfds[128];
        int pfd_sub[128];
        int fired[128] = {0};
        int npfd = 0;
        int any_socket = 0;
        int have_immediate = 0;
        uint64_t earliest = UINT64_MAX; /* monotonic-ns deadline */
        uint64_t now_mono = rt_now_ns(1);

        for (uint32_t i = 0; i < nsubscriptions; i++) {
            struct sub *s = &subs[i];
            if (s->tag == EVT_CLOCK) {
                if (s->clock_id > 1) {
                    n = put_event(events_addr, n, s->userdata, W_INVAL, EVT_CLOCK, 0, 0);
                    fired[i] = 1;
                    have_immediate = 1;
                    continue;
                }
                uint64_t deadline_mono = clock_deadline(s, entry_mono, now_mono);
                if (deadline_mono <= now_mono) {
                    n = put_event(events_addr, n, s->userdata, W_SUCCESS, EVT_CLOCK, 0, 0);
                    fired[i] = 1;
                    have_immediate = 1;
                } else if (deadline_mono < earliest) {
                    earliest = deadline_mono;
                }
                continue;
            }
            if (s->tag != EVT_FD_READ && s->tag != EVT_FD_WRITE) {
                n = put_event(events_addr, n, s->userdata, W_INVAL, s->tag, 0, 0);
                have_immediate = 1;
                continue;
            }
            fd_entry *e = rt_fd_get(s->fd);
            if (!e) {
                n = put_event(events_addr, n, s->userdata, W_BADF, s->tag, 0, 0);
                have_immediate = 1;
                continue;
            }
            if (e->kind == FK_TARFILE) {
                uint64_t avail = e->node->size - e->cursor;
                n = put_event(events_addr, n, s->userdata, W_SUCCESS, s->tag, avail, 0);
                have_immediate = 1;
                continue;
            }
            if (e->kind == FK_TARDIR) {
                n = put_event(events_addr, n, s->userdata, W_NOTSUP, s->tag, 0, 0);
                have_immediate = 1;
                continue;
            }
            pfds[npfd].fd = e->host_fd;
            pfds[npfd].events = (short)(s->tag == EVT_FD_READ ? POLLIN : POLLOUT);
            pfds[npfd].revents = 0;
            pfd_sub[npfd] = (int)i;
            npfd++;
            if (e->kind == FK_SOCKET)
                any_socket = 1;
        }

        int timeout_ms;
        if (have_immediate)
            timeout_ms = 0;
        else if (earliest == UINT64_MAX)
            timeout_ms = -1;
        else {
            uint64_t delta = earliest - now_mono;
            timeout_ms = (int)((delta + 999999ull) / 1000000ull);
        }

        int rc;
        /* waiting on socket readiness is packet-path time (the lwIP/RX
         * analog); a pure clock sleep is timer; other fds are host I/O */
        int was = prof_enter(npfd == 0 ? P_TIMER : (any_socket ? P_SOCKET : P_HOSTIO));
        do {
            rc = poll(npfd ? pfds : NULL, (nfds_t)npfd, timeout_ms);
        } while (rc < 0 && errno == EINTR);
        prof_enter(was);
        if (rc < 0)
            return rt_errno_to_wasi(errno);

        for (int k = 0; k < npfd; k++) {
            if (!pfds[k].revents)
                continue;
            struct sub *s = &subs[pfd_sub[k]];
            fd_entry *e = rt_fd_get(s->fd);
            uint16_t flags = 0;
            uint64_t nbytes = 0;
            uint16_t werrno = W_SUCCESS;
            if (pfds[k].revents & POLLNVAL) {
                werrno = W_BADF;
            } else {
                if (pfds[k].revents & (POLLHUP | POLLERR))
                    flags |= EVTRW_HANGUP;
                if (s->tag == EVT_FD_READ && e && e->kind == FK_SOCKET)
                    nbytes = rt_sock_readable_bytes(e);
                else if (s->tag == EVT_FD_WRITE)
                    nbytes = 65536;
            }
            n = put_event(events_addr, n, s->userdata, werrno, s->tag, nbytes, flags);
        }

        /* clocks that fired while we slept */
        if (n == 0 || rc == 0) {
            uint64_t now2 = rt_now_ns(1);
            for (uint32_t i = 0; i < nsubscriptions; i++) {
                struct sub *s = &subs[i];
                if (s->tag != EVT_CLOCK || s->clock_id > 1 || fired[i])
                    continue;
                if (clock_deadline(s, entry_mono, now2) <= now2)
                    n = put_event(events_addr, n, s->userdata, W_SUCCESS, EVT_CLOCK, 0, 0);
            }
        }

        if (n > 0)
            break;
        /* spurious wake (poll timeout rounding): loop and wait again */
    }

    lm_set_u32(nevents_out, n);
    return W_SUCCESS;
}
