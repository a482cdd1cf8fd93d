/* Scoped six-bucket profiler.
 *
 * Exclusive attribution: at every push/pop the elapsed monotonic time since
 * the last transition is charged to the scope on top, so buckets never
 * double-count. Activated by SEAM_PROFILE=1; the report is flushed at exit
 * as JSON to SEAM_PROFILE_OUT (or stderr).
 *
 * Where the scopes come from: main.c opens "guest" around the guest's
 * entry point. A WASI call's scope is its ABI row's bucket column (wasi,
 * timer or socket), opened by the row's generated entry in abi.c;
 * memory_grow opens "memory". Inside a row scope a few inner scopes are
 * hand-placed: "hostio" around random_get's getrandom, stdio fd_read and
 * fd_write, and fd_close's close of a socket; "socket" around fd_read and
 * fd_write on a socket, and around the send of held bytes (fdtable.c)
 * where an inner scope may open; and around poll_oneoff's poll(2) wait
 * "timer" (clocks only), "socket" (any socket) or "hostio" (other fds).
 * Time in the guest scope outside every runtime scope is "guest". The unikernel
 * analogy: "socket" stands in for lwIP packet processing, "hostio" for the
 * driver.
 *
 * Every push checks the discipline and aborts on a breach: guest at the
 * bottom, a row or memory scope directly on it, and only hostio, timer or
 * socket inside that. */
#include "rt.h"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

int prof_on;
static uint64_t acc[P_NBUCKETS];
static int stack[32];
static int depth;
static uint64_t mark;
static uint64_t t_start;

static const char *bucket_names[P_NBUCKETS] = {
    "guest", "wasi", "memory", "timer", "socket", "hostio",
};

static uint64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (uint64_t)ts.tv_sec * 1000000000ull + (uint64_t)ts.tv_nsec;
}

static void prof_report(void)
{
    if (!prof_on)
        return;
    uint64_t end = now_ns();
    if (depth > 0) /* charge any scope still open at exit */
        acc[stack[depth - 1]] += end - mark;
    uint64_t total = end - t_start;
    uint64_t attributed = 0;
    for (int i = 0; i < P_NBUCKETS; i++)
        attributed += acc[i];
    uint64_t unattributed = total > attributed ? total - attributed : 0;

    const char *path = getenv("SEAM_PROFILE_OUT");
    FILE *out = stderr;
    if (path && *path) {
        FILE *f = fopen(path, "w");
        if (f)
            out = f;
    }
    fprintf(out, "{\"total_ns\": %llu, \"buckets\": {", (unsigned long long)total);
    for (int i = 0; i < P_NBUCKETS; i++)
        fprintf(out, "%s\"%s\": %llu", i ? ", " : "", bucket_names[i],
                (unsigned long long)acc[i]);
    fprintf(out, "}, \"unattributed_ns\": %llu}\n", (unsigned long long)unattributed);
    if (out != stderr)
        fclose(out);
}

void prof_init(void)
{
    const char *v = getenv("SEAM_PROFILE");
    prof_on = v && *v && strcmp(v, "0") != 0;
    if (!prof_on)
        return;
    t_start = now_ns();
    mark = t_start;
    atexit(prof_report);
}

void prof_push(int bucket)
{
    if (!prof_on)
        return;
    if (depth >= (int)(sizeof stack / sizeof stack[0])
        || (depth == 0) != (bucket == P_GUEST)
        || (depth >= 2 && (stack[depth - 2] != P_GUEST
                           || (bucket != P_HOSTIO && bucket != P_TIMER && bucket != P_SOCKET))))
        abort();
    uint64_t t = now_ns();
    if (depth > 0)
        acc[stack[depth - 1]] += t - mark;
    mark = t;
    stack[depth++] = bucket;
}

/* Opens bucket as an inner scope only directly on guest or on a row
 * scope. Elsewhere (inside another inner scope, or at exit once guest has
 * closed) the time stays with the scope that is open. */
int prof_push_inner(int bucket)
{
    if (!prof_on || depth < 1 || depth > 2)
        return 0;
    prof_push(bucket);
    return 1;
}

void prof_pop(void)
{
    if (!prof_on || depth == 0)
        return;
    uint64_t t = now_ns();
    acc[stack[--depth]] += t - mark;
    mark = t;
}
