/* Closed-loop keep-alive HTTP/1.1 load generator for the benchmark.
 *
 * One thread, one epoll loop, C connections with D requests in flight on
 * each (D = 1 is the unloaded shape, D > 1 pipelines). A connection sends
 * its next request only when a response completes, so a slow server gets
 * less load. Every response is checked: status line, Content-Length and
 * every body byte against the expected bodies, which the caller writes
 * from the generated source files.
 *
 *   loadgen PORT CONNS DEPTH WARMUP_S MEASURE_S EXPECT_DIR SERVER_PID [SPANS_OUT]
 *
 * EXPECT_DIR holds entries.txt ("status length offset path" per line),
 * bodies.bin (the concatenated expected bodies) and seq.txt (the request
 * sequence as entry indices, cycled). With SPANS_OUT, the send, first-byte
 * and last-byte times of up to SPAN_CAP measured requests are kept in
 * memory and written there at exit.
 *
 * The measured window is cut into WINDOW_NS slices. For each slice it
 * records completions, exact p50/p99 latency and, when SERVER_PID is not
 * 0, the server's run time from /proc/<pid>/task/<tid>/schedstat, so the
 * caller can take medians that a short burst of interference on a shared
 * host does not move.
 *
 * Prints one JSON object: completed and failed counts, the measured
 * window, exact latency percentiles over every measured request, this
 * process's CPU time over the window, and the per-slice figures. */
#define _GNU_SOURCE
#include <arpa/inet.h>
#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#define MAXD 64
#define RBUF (256 * 1024)
#define HDR_MAX 1024
#define SPAN_CAP 200000
#define WINDOW_NS 100000000ull
#define MAX_WINDOWS 4096

typedef struct {
    int status;
    uint32_t len;
    uint64_t off;
    char *req;
    uint32_t req_len;
} entry_t;

typedef struct {
    int fd;
    uint32_t ent[MAXD];
    uint64_t sent_ns[MAXD];
    uint64_t first_ns[MAXD];
    int head, count;
    char hdr[HDR_MAX];
    int hdr_len;
    int in_body;
    uint32_t body_off;
} conn_t;

typedef struct {
    uint32_t conn, ent;
    uint64_t send, first, last;
} span_t;

static entry_t *ents;
static int n_ents;
static uint32_t *seq;
static int n_seq;
static uint8_t *bodies;
static int seq_next;

static conn_t *conns;
static int n_conns, depth, port, epfd;
static uint64_t t_measure, t_end;
static int sending = 1;

static uint64_t completed_total, failed_total, completed_window, bytes_window;
static uint32_t *lat;
static size_t n_lat, cap_lat;
static span_t *spans;
static size_t n_spans;

/* snapshot at the start of each slice (index n_win is the end of the last) */
static struct {
    uint64_t completed, server_ns, steal;
    size_t lat_at;
} cut[MAX_WINDOWS + 1];
static int n_win, server_pid;

static uint64_t server_run_ns(void)
{
    if (!server_pid)
        return 0;
    char path[64];
    snprintf(path, sizeof path, "/proc/%d/task", server_pid);
    DIR *d = opendir(path);
    if (!d)
        return 0;
    uint64_t total = 0;
    struct dirent *de;
    while ((de = readdir(d))) {
        if (de->d_name[0] == '.')
            continue;
        char f[320];
        snprintf(f, sizeof f, "/proc/%d/task/%s/schedstat", server_pid, de->d_name);
        FILE *fp = fopen(f, "r");
        unsigned long long ns;
        if (fp && fscanf(fp, "%llu", &ns) == 1)
            total += ns;
        if (fp)
            fclose(fp);
    }
    closedir(d);
    return total;
}

/* steal ticks of every CPU this host has, from /proc/stat */
static uint64_t host_steal(void)
{
    FILE *f = fopen("/proc/stat", "r");
    if (!f)
        return 0;
    char line[512];
    uint64_t total = 0;
    if (fgets(line, sizeof line, f)) {
        unsigned long long v[8] = {0};
        if (sscanf(line, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                   &v[4], &v[5], &v[6], &v[7]) == 8)
            total = v[7];
    }
    fclose(f);
    return total;
}

static uint64_t now_ns(clockid_t c)
{
    struct timespec ts;
    clock_gettime(c, &ts);
    return (uint64_t)ts.tv_sec * 1000000000ull + (uint64_t)ts.tv_nsec;
}

static void die(const char *msg)
{
    fprintf(stderr, "loadgen: %s: %s\n", msg, strerror(errno));
    exit(2);
}

static void *read_file(const char *dir, const char *name, size_t *len)
{
    char path[4096];
    snprintf(path, sizeof path, "%s/%s", dir, name);
    FILE *f = fopen(path, "rb");
    if (!f)
        die(path);
    fseek(f, 0, SEEK_END);
    long n = ftell(f);
    fseek(f, 0, SEEK_SET);
    char *buf = malloc((size_t)n + 1);
    if (!buf || fread(buf, 1, (size_t)n, f) != (size_t)n)
        die(path);
    buf[n] = 0;
    fclose(f);
    *len = (size_t)n;
    return buf;
}

static void load_expect(const char *dir)
{
    size_t n;
    char *txt = read_file(dir, "entries.txt", &n);
    for (size_t i = 0; i < n; i++)
        n_ents += txt[i] == '\n';
    ents = calloc((size_t)n_ents, sizeof *ents);
    char *line = txt;
    for (int i = 0; i < n_ents; i++) {
        char *nl = strchr(line, '\n');
        *nl = 0;
        unsigned long long off;
        char path[2048];
        if (sscanf(line, "%d %u %llu %2047s", &ents[i].status, &ents[i].len, &off, path) != 4) {
            errno = EINVAL;
            die("entries.txt");
        }
        ents[i].off = off;
        char req[4096];
        int rl = snprintf(req, sizeof req, "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n", path);
        ents[i].req = malloc((size_t)rl);
        memcpy(ents[i].req, req, (size_t)rl);
        ents[i].req_len = (uint32_t)rl;
        line = nl + 1;
    }
    free(txt);
    bodies = read_file(dir, "bodies.bin", &n);
    txt = read_file(dir, "seq.txt", &n);
    for (size_t i = 0; i < n; i++)
        n_seq += txt[i] == '\n';
    seq = calloc((size_t)n_seq, sizeof *seq);
    char *p = txt;
    for (int i = 0; i < n_seq; i++) {
        seq[i] = (uint32_t)strtoul(p, &p, 10);
        if (seq[i] >= (uint32_t)n_ents) {
            errno = EINVAL;
            die("seq.txt");
        }
    }
    free(txt);
}

static int open_conn(void)
{
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        die("socket");
    struct sockaddr_in sa = {0};
    sa.sin_family = AF_INET;
    sa.sin_port = htons((uint16_t)port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, (struct sockaddr *)&sa, sizeof sa) != 0)
        die("connect");
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    return fd;
}

static void add_conn(conn_t *c, int idx)
{
    memset(c, 0, sizeof *c);
    c->fd = open_conn();
    struct epoll_event ev = {.events = EPOLLIN, .data.u32 = (uint32_t)idx};
    if (epoll_ctl(epfd, EPOLL_CTL_ADD, c->fd, &ev) != 0)
        die("epoll_ctl");
}

/* fill the connection's pipeline up to depth with one write */
static int refill(conn_t *c, uint64_t t)
{
    char out[MAXD * 4096];
    size_t n = 0;
    while (sending && c->count < depth) {
        uint32_t e = seq[seq_next];
        seq_next = (seq_next + 1) % n_seq;
        int slot = (c->head + c->count) % MAXD;
        c->ent[slot] = e;
        c->sent_ns[slot] = t;
        c->first_ns[slot] = 0;
        c->count++;
        memcpy(out + n, ents[e].req, ents[e].req_len);
        n += ents[e].req_len;
    }
    size_t off = 0;
    while (off < n) { /* requests are tiny; the send buffer takes them */
        ssize_t w = send(c->fd, out + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            return -1;
        }
        off += (size_t)w;
    }
    return 0;
}

static void fail_conn(conn_t *c, int idx)
{
    failed_total += (uint64_t)(c->count ? c->count : 1);
    epoll_ctl(epfd, EPOLL_CTL_DEL, c->fd, NULL);
    close(c->fd);
    if (sending)
        add_conn(c, idx);
    else
        c->fd = -1;
}

static void complete(conn_t *c, int idx, uint64_t t)
{
    int slot = c->head;
    completed_total++;
    if (c->sent_ns[slot] >= t_measure && t <= t_end) {
        completed_window++;
        bytes_window += ents[c->ent[slot]].len;
        uint64_t l = t - c->sent_ns[slot];
        if (n_lat == cap_lat) {
            cap_lat = cap_lat ? cap_lat * 2 : 1 << 20;
            lat = realloc(lat, cap_lat * sizeof *lat);
            if (!lat)
                die("realloc");
        }
        lat[n_lat++] = l > 0xffffffffull ? 0xffffffffu : (uint32_t)l;
        if (spans && n_spans < SPAN_CAP)
            spans[n_spans++] = (span_t){(uint32_t)idx, c->ent[slot], c->sent_ns[slot],
                                        c->first_ns[slot], t};
    }
    c->head = (c->head + 1) % MAXD;
    c->count--;
}

/* consume received bytes; returns -1 on any protocol or content mismatch */
static int consume(conn_t *c, int idx, const uint8_t *p, size_t n, uint64_t t)
{
    while (n > 0) {
        if (c->count == 0)
            return -1; /* bytes nobody asked for */
        entry_t *e = &ents[c->ent[c->head]];
        if (!c->in_body) {
            if (c->first_ns[c->head] == 0)
                c->first_ns[c->head] = t;
            size_t take = 0;
            int done = 0;
            while (take < n && !done) {
                if (c->hdr_len >= HDR_MAX - 1)
                    return -1;
                c->hdr[c->hdr_len++] = (char)p[take++];
                done = c->hdr_len >= 4 && memcmp(c->hdr + c->hdr_len - 4, "\r\n\r\n", 4) == 0;
            }
            p += take;
            n -= take;
            if (!done)
                return 0;
            c->hdr[c->hdr_len] = 0;
            int status = 0;
            if (sscanf(c->hdr, "HTTP/1.1 %d", &status) != 1 || status != e->status)
                return -1;
            const char *cl = strstr(c->hdr, "\r\nContent-Length: ");
            if (!cl || strtoul(cl + 18, NULL, 10) != e->len)
                return -1;
            c->hdr_len = 0;
            c->in_body = 1;
            c->body_off = 0;
        }
        size_t take = e->len - c->body_off;
        if (take > n)
            take = n;
        if (memcmp(p, bodies + e->off + c->body_off, take) != 0)
            return -1;
        c->body_off += (uint32_t)take;
        p += take;
        n -= take;
        if (c->body_off == e->len) {
            c->in_body = 0;
            complete(c, idx, t);
        }
    }
    return 0;
}

static int cmp_u32(const void *a, const void *b)
{
    uint32_t x = *(const uint32_t *)a, y = *(const uint32_t *)b;
    return x < y ? -1 : x > y;
}

/* percentile of a sorted array, in microseconds */
static double pct(const uint32_t *v, size_t n, double q)
{
    if (!n)
        return 0;
    size_t i = (size_t)(q * (double)n);
    if (i >= n)
        i = n - 1;
    return v[i] / 1000.0;
}

int main(int argc, char **argv)
{
    if (argc < 8) {
        fprintf(stderr, "usage: loadgen PORT CONNS DEPTH WARMUP_S MEASURE_S EXPECT_DIR SERVER_PID [SPANS_OUT]\n");
        return 2;
    }
    port = atoi(argv[1]);
    n_conns = atoi(argv[2]);
    depth = atoi(argv[3]);
    double warmup = atof(argv[4]), measure = atof(argv[5]);
    if (n_conns < 1 || depth < 1 || depth > MAXD || measure <= 0) {
        fprintf(stderr, "loadgen: bad arguments\n");
        return 2;
    }
    load_expect(argv[6]);
    server_pid = atoi(argv[7]);
    n_win = (int)(measure * 1e9 / (double)WINDOW_NS);
    if (n_win < 1 || n_win > MAX_WINDOWS) {
        fprintf(stderr, "loadgen: measure window must hold 1..%d slices\n", MAX_WINDOWS);
        return 2;
    }
    if (argc > 8) {
        spans = malloc(SPAN_CAP * sizeof *spans);
        if (!spans)
            die("malloc");
    }

    epfd = epoll_create1(EPOLL_CLOEXEC);
    conns = calloc((size_t)n_conns, sizeof *conns);
    uint64_t t0 = now_ns(CLOCK_MONOTONIC);
    t_measure = t0 + (uint64_t)(warmup * 1e9);
    t_end = t_measure + (uint64_t)n_win * WINDOW_NS;
    for (int i = 0; i < n_conns; i++)
        add_conn(&conns[i], i);
    for (int i = 0; i < n_conns; i++)
        if (refill(&conns[i], now_ns(CLOCK_MONOTONIC)) != 0)
            fail_conn(&conns[i], i);

    uint64_t cpu0 = 0, cpu1 = 0, last_progress = t0;
    int measuring = 0, next_cut = 0;
    static uint8_t rbuf[RBUF];
    struct epoll_event evs[64];
    for (;;) {
        uint64_t t = now_ns(CLOCK_MONOTONIC);
        if (!measuring && t >= t_measure) {
            measuring = 1;
            cpu0 = now_ns(CLOCK_PROCESS_CPUTIME_ID);
        }
        if (sending && t >= t_end) {
            sending = 0;
            cpu1 = now_ns(CLOCK_PROCESS_CPUTIME_ID);
        }
        int inflight = 0;
        for (int i = 0; i < n_conns; i++)
            inflight += conns[i].fd >= 0 ? conns[i].count : 0;
        if (!sending && inflight == 0)
            break;
        if (t - last_progress > 5000000000ull) { /* no byte for 5 s: give up on what is left */
            failed_total += (uint64_t)inflight;
            break;
        }
        int wait_ms = 100;
        if (next_cut <= n_win) {
            uint64_t due = t_measure + (uint64_t)next_cut * WINDOW_NS;
            wait_ms = due > t ? (int)((due - t) / 1000000) + 1 : 0;
            if (wait_ms > 100)
                wait_ms = 100;
        }
        int nev = epoll_wait(epfd, evs, 64, wait_ms);
        if (nev < 0 && errno != EINTR)
            die("epoll_wait");
        t = now_ns(CLOCK_MONOTONIC);
        while (next_cut <= n_win && t >= t_measure + (uint64_t)next_cut * WINDOW_NS) {
            cut[next_cut].completed = completed_window;
            cut[next_cut].server_ns = server_run_ns();
            cut[next_cut].steal = host_steal();
            cut[next_cut].lat_at = n_lat;
            next_cut++;
        }
        for (int k = 0; k < nev; k++) {
            int idx = (int)evs[k].data.u32;
            conn_t *c = &conns[idx];
            ssize_t r = recv(c->fd, rbuf, sizeof rbuf, 0);
            if (r < 0 && (errno == EAGAIN || errno == EINTR))
                continue;
            if (r <= 0 || consume(c, idx, rbuf, (size_t)r, t) != 0) {
                fail_conn(c, idx);
                continue;
            }
            last_progress = t;
            if (refill(c, t) != 0)
                fail_conn(c, idx);
        }
    }
    if (!cpu1)
        cpu1 = now_ns(CLOCK_PROCESS_CPUTIME_ID);

    while (next_cut <= n_win) { /* a stalled end still closes every slice */
        cut[next_cut].completed = completed_window;
        cut[next_cut].server_ns = server_run_ns();
        cut[next_cut].steal = host_steal();
        cut[next_cut].lat_at = n_lat;
        next_cut++;
    }
    printf("{\"completed\": %llu, \"failed\": %llu, \"window_completed\": %llu, "
           "\"window_s\": %.6f, \"window_bytes\": %llu, \"cpu_ns\": %llu, \"slices\": [",
           (unsigned long long)completed_total, (unsigned long long)failed_total,
           (unsigned long long)completed_window, (double)(t_end - t_measure) / 1e9,
           (unsigned long long)bytes_window, (unsigned long long)(cpu1 - cpu0));
    for (int w = 0; w < n_win; w++) {
        uint32_t *part = lat + cut[w].lat_at;
        size_t m = cut[w + 1].lat_at - cut[w].lat_at;
        qsort(part, m, sizeof *part, cmp_u32);
        printf("%s{\"n\": %llu, \"server_ns\": %llu, \"steal\": %llu, \"p50\": %.3f, \"p99\": %.3f}",
               w ? ", " : "", (unsigned long long)(cut[w + 1].completed - cut[w].completed),
               (unsigned long long)(cut[w + 1].server_ns - cut[w].server_ns),
               (unsigned long long)(cut[w + 1].steal - cut[w].steal), pct(part, m, 0.50),
               pct(part, m, 0.99));
    }
    qsort(lat, n_lat, sizeof *lat, cmp_u32);
    printf("], \"lat_us\": {\"n\": %zu, \"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f}}\n",
           n_lat, pct(lat, n_lat, 0.50), pct(lat, n_lat, 0.99), pct(lat, n_lat, 0.999));
    if (spans) {
        FILE *f = fopen(argv[8], "w");
        if (!f)
            die(argv[8]);
        for (size_t i = 0; i < n_spans; i++)
            fprintf(f, "%u %u %llu %llu %llu\n", spans[i].conn, spans[i].ent,
                    (unsigned long long)spans[i].send, (unsigned long long)spans[i].first,
                    (unsigned long long)spans[i].last);
        fclose(f);
    }
    return 0;
}
