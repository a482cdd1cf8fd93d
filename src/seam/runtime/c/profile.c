/* Six-bucket profiler with one current bucket.
 *
 * At every moment one bucket is current, or P_NONE, "no bucket", for boot
 * and teardown. prof_switch charges the monotonic time since the last
 * switch to the current bucket and makes another one current, so buckets
 * never double-count, and the buckets plus the no-bucket time, reported as
 * unattributed_ns, sum to the total exactly. A stretch of runtime code is
 * charged to bucket X by
 *
 *     int was = prof_enter(P_X); ... prof_enter(was);
 *
 * (rt.h), which gives the time back to the bucket it interrupted.
 *
 * Who enters what: main.c enters "guest" around the guest's entry point and
 * "no bucket" after it. A WASI call enters its ABI row's bucket column
 * (wasi, timer or socket) in the row's generated entry in abi.c;
 * memory_grow enters "memory". Host I/O is charged where it happens:
 * rt_iov_xfer charges a whole transfer to "socket" on a socket and to
 * "hostio" on stdio, and the send of held bytes (fdtable.c) is "socket"
 * wherever it runs. A tar file read does no host I/O: its copy stays with
 * the calling row's bucket, "wasi". random_get's getrandom and fd_close's close of
 * a socket are "hostio"; poll_oneoff's ppoll(2) wait is "timer" (clocks
 * only), "socket" (any socket) or "hostio" (other fds). The unikernel
 * analogy: "socket" stands in for lwIP packet processing, "hostio" for the
 * driver.
 *
 * Activated by SEAM_PROFILE=1; the exit path (rt_exit) writes the report
 * as JSON to SEAM_PROFILE_OUT (or stderr), with the process's peak resident
 * set. */
#include "rt.h"

int prof_on;
static uint64_t acc[P_NONE + 1];
static int cur = P_NONE;
static uint64_t mark;
static uint64_t t_start;

int prof_switch(int b)
{
    uint64_t t = rt_now_ns(1);
    int was = cur;
    acc[was] += t - mark;
    mark = t;
    cur = b;
    return was;
}

/* VmHWM from /proc/self/status in KiB, or 0 when it cannot be read.
 * getrusage's ru_maxrss will not do: exec keeps the peak of the image it
 * replaced, so a process started by a large one reports that one's peak. */
static uint64_t peak_rss_kb(void)
{
    char buf[4096];
    long fd = sys_openat(AT_FDCWD, "/proc/self/status", O_RDONLY | O_CLOEXEC, 0);
    if (fd < 0)
        return 0;
    long n = sys_read((int)fd, buf, sizeof buf - 1);
    sys_close((int)fd);
    buf[n > 0 ? n : 0] = 0;
    for (char *line = buf, *end; (end = strchr(line, '\n')); line = end + 1) {
        if (end - line > 6 && memcmp(line, "VmHWM:", 6) == 0) { /* "VmHWM:\t 1244 kB" */
            uint64_t kb = 0;
            for (const char *c = line + 6; c < end; c++)
                if (*c >= '0' && *c <= '9')
                    kb = kb * 10 + (uint64_t)(*c - '0');
            return kb;
        }
    }
    return 0;
}

void prof_report(void)
{
    if (!prof_on)
        return;
    prof_switch(P_NONE);
    const char *path = getenv("SEAM_PROFILE_OUT");
    long fd = 2;
    if (path && *path) {
        fd = sys_openat(AT_FDCWD, path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
        if (fd < 0)
            fd = 2;
    }
    /* the buckets in the order of seam.codegen.symbols.BUCKETS */
    rt_print((int)fd, "{\"total_ns\": %llu, \"buckets\": {\"guest\": %llu, \"wasi\": %llu, "
             "\"memory\": %llu, \"timer\": %llu, \"socket\": %llu, \"hostio\": %llu}, "
             "\"unattributed_ns\": %llu, \"max_rss_kb\": %llu}\n",
             (unsigned long long)(mark - t_start), (unsigned long long)acc[P_GUEST],
             (unsigned long long)acc[P_WASI], (unsigned long long)acc[P_MEMORY],
             (unsigned long long)acc[P_TIMER], (unsigned long long)acc[P_SOCKET],
             (unsigned long long)acc[P_HOSTIO], (unsigned long long)acc[P_NONE],
             (unsigned long long)peak_rss_kb());
    if (fd != 2)
        sys_close((int)fd);
}

void prof_init(void)
{
    const char *v = getenv("SEAM_PROFILE");
    prof_on = v && *v && strcmp(v, "0") != 0;
    if (!prof_on)
        return;
    t_start = rt_now_ns(1);
    mark = t_start;
}
