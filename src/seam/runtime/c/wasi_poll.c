/* poll_oneoff: the only readiness multiplexer WASI offers; semantics are
 * POSIX poll over the subscribed fds plus the earliest clock deadline.
 *
 * Per-subscription failures (bad fd, unsupported clock) become events with
 * that errno rather than failing the call, per the preview1 ABI. Regular
 * tar files are always ready, like POSIX poll on regular files.
 *
 * One pass over the subscriptions, before the wait, writes every event
 * known at entry (bad clock id or tag, bad fd, tar file, tar directory),
 * turns each clock into a monotonic deadline (a relative one counts from
 * entry, an absolute one is converted at entry) and fills the pollfd
 * array. Each wait then polls once and writes the fds that fired and every
 * clock that is due, until there is an event. So events come in this
 * order: those known at entry, then fds, then due clocks, each in
 * subscription order. Events are written while subscriptions are still
 * read, so the two arrays must not overlap. */
#include "rt.h"
#include "abi.h"

#define EVT_CLOCK 0
#define EVT_FD_READ 1
#define EVT_FD_WRITE 2
#define SUBCLOCK_ABSTIME 1
#define EVTRW_HANGUP 1
#define MAX_SUBS 128

/* the 32-byte event at ev for the 48-byte subscription at sub: its
 * userdata, and its tag as the event type */
static void put_event(uint8_t *ev, const uint8_t *sub, uint16_t werrno, uint64_t nbytes,
                      uint16_t flags)
{
    memset(ev, 0, 32);
    memcpy(ev, sub, 8);
    memcpy(ev + 8, &werrno, 2);
    ev[10] = sub[8];
    memcpy(ev + 16, &nbytes, 8);
    memcpy(ev + 24, &flags, 2);
}

/* bytes buffered for reading on a socket */
static uint64_t readable_bytes(const fd_entry *e)
{
    int avail = 0;
    if (sys_ioctl(e->host_fd, FIONREAD, &avail) != 0 || avail < 0)
        return 0;
    return (uint64_t)avail;
}

uint32_t wasi_poll_oneoff(uint32_t subs_addr, uint32_t events_addr, uint32_t nsubscriptions,
                          uint32_t nevents_out)
{
    if (nsubscriptions == 0 || nsubscriptions > MAX_SUBS)
        return W_INVAL;
    const uint8_t *subs = lm_ptr(subs_addr, 48 * nsubscriptions);
    uint8_t *events = lm_ptr(events_addr, 32 * nsubscriptions);

    rt_flush_sends(); /* the guest waits: what it sent leaves now */
    uint64_t now = rt_now_ns(1);
    uint64_t deadline[MAX_SUBS], earliest = UINT64_MAX; /* monotonic ns */
    const uint8_t *clock_sub[MAX_SUBS], *pfd_sub[MAX_SUBS];
    fd_entry *pfd_e[MAX_SUBS];
    struct pollfd pfds[MAX_SUBS];
    uint32_t n = 0;
    int nclock = 0, npfd = 0, any_socket = 0;

    for (uint32_t i = 0; i < nsubscriptions; i++) {
        const uint8_t *s = subs + 48 * i;
        uint8_t tag = s[8];
        uint32_t id; /* clock id or fd */
        memcpy(&id, s + 16, 4);
        if (tag == EVT_CLOCK && id <= 1) {
            uint64_t timeout;
            uint16_t clock_flags;
            memcpy(&timeout, s + 24, 8);
            memcpy(&clock_flags, s + 40, 2);
            if (clock_flags & SUBCLOCK_ABSTIME) {
                uint64_t now_clk = rt_now_ns((int)id);
                timeout = timeout > now_clk ? timeout - now_clk : 0;
            }
            clock_sub[nclock] = s;
            /* saturated: a deadline past the clock's range never comes */
            deadline[nclock] = timeout < UINT64_MAX - now ? now + timeout : UINT64_MAX;
            if (deadline[nclock] < earliest)
                earliest = deadline[nclock];
            nclock++;
            continue;
        }
        fd_entry *e = rt_fd_get(id);
        if (tag != EVT_FD_READ && tag != EVT_FD_WRITE)
            put_event(events + 32 * n++, s, W_INVAL, 0, 0);
        else if (!e)
            put_event(events + 32 * n++, s, W_BADF, 0, 0);
        else if (e->kind == FK_TARFILE)
            put_event(events + 32 * n++, s, W_SUCCESS, e->node->size - e->cursor, 0);
        else if (e->kind == FK_TARDIR)
            put_event(events + 32 * n++, s, W_NOTSUP, 0, 0);
        else {
            pfds[npfd] = (struct pollfd){e->host_fd, tag == EVT_FD_READ ? POLLIN : POLLOUT, 0};
            pfd_sub[npfd] = s;
            pfd_e[npfd++] = e;
            any_socket |= e->kind == FK_SOCKET;
        }
    }
    /* waiting on socket readiness is packet-path time (the lwIP/RX analog);
     * a pure clock sleep is timer; other fds are host I/O */
    int bucket = npfd == 0 ? P_TIMER : any_socket ? P_SOCKET : P_HOSTIO;

    do {
        /* none with events at hand, else to the earliest deadline, if any */
        struct timespec wait = {0, 0}, *timeout = &wait;
        if (!n && earliest == UINT64_MAX)
            timeout = NULL;
        else if (!n && earliest > now)
            wait = (struct timespec){(long)((earliest - now) / 1000000000ull),
                                     (long)((earliest - now) % 1000000000ull)};
        long rc;
        int was = prof_enter(bucket);
        do {
            rc = sys_ppoll(npfd ? pfds : NULL, (unsigned)npfd, timeout);
        } while (rc == -EINTR);
        prof_enter(was);
        if (rc < 0)
            return rt_errno_to_wasi(rc);

        for (int k = 0; k < npfd; k++) {
            short rev = pfds[k].revents;
            if (!rev)
                continue;
            if (rev & POLLNVAL) {
                put_event(events + 32 * n++, pfd_sub[k], W_BADF, 0, 0);
                continue;
            }
            uint64_t nbytes = 0;
            if (pfds[k].events == POLLOUT)
                nbytes = 65536;
            else if (pfd_e[k]->kind == FK_SOCKET)
                nbytes = readable_bytes(pfd_e[k]);
            put_event(events + 32 * n++, pfd_sub[k], W_SUCCESS, nbytes,
                      rev & (POLLHUP | POLLERR) ? EVTRW_HANGUP : 0);
        }
        if (nclock) {
            now = rt_now_ns(1);
            for (int c = 0; c < nclock; c++)
                if (deadline[c] <= now)
                    put_event(events + 32 * n++, clock_sub[c], W_SUCCESS, 0, 0);
        }
        /* none yet: a spurious wake; wait again */
    } while (n == 0);

    lm_set_u32(nevents_out, n);
    return W_SUCCESS;
}
