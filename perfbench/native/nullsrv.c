/* Native null server: the floor the httpd guest is measured against.
 *
 * Same shape as the guest: one thread, one readiness loop over the
 * listener and every connection, keep-alive, blocking sends, "/" ->
 * "/index.html", 404 "not found\n", and byte-identical response headers.
 * It differs only in doing the least work possible: files are read into
 * memory at start, looked up in a hash table, and each response leaves in
 * one writev.
 *
 *   nullsrv PORT ROOT_DIR
 *
 * Prints "listening" once ready; runs until killed. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <ftw.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#define SLOTS 4096
#define REQ_BUF 2048

typedef struct {
    char *path; /* "/relative/path" */
    char *head;
    size_t head_len;
    char *body;
    size_t body_len;
} file_t;

static file_t table[SLOTS];
static size_t root_len;
static char notfound_head[128];
static size_t notfound_head_len;

typedef struct {
    int fd;
    char buf[REQ_BUF];
    size_t len;
} conn_t;

static uint64_t fnv(const char *s, size_t n)
{
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < n; i++)
        h = (h ^ (uint8_t)s[i]) * 1099511628211ull;
    return h;
}

static file_t *lookup(const char *p, size_t n)
{
    for (uint64_t i = fnv(p, n) % SLOTS;; i = (i + 1) % SLOTS) {
        if (!table[i].path)
            return NULL;
        if (strlen(table[i].path) == n && memcmp(table[i].path, p, n) == 0)
            return &table[i];
    }
}

static int add_file(const char *fpath, const struct stat *sb, int type, struct FTW *ftw)
{
    (void)ftw;
    if (type != FTW_F)
        return 0;
    const char *rel = fpath + root_len;
    size_t n = strlen(rel);
    uint64_t i = fnv(rel, n) % SLOTS;
    while (table[i].path)
        i = (i + 1) % SLOTS;
    file_t *f = &table[i];
    f->path = strdup(rel);
    f->body_len = (size_t)sb->st_size;
    f->body = malloc(f->body_len + 1);
    FILE *fp = fopen(fpath, "rb");
    if (!fp || fread(f->body, 1, f->body_len, fp) != f->body_len)
        return -1;
    fclose(fp);
    char head[128];
    f->head_len = (size_t)snprintf(head, sizeof head,
        "HTTP/1.1 200 OK\r\nContent-Length: %zu\r\nConnection: keep-alive\r\n\r\n", f->body_len);
    f->head = strdup(head);
    return 0;
}

static void send_all(int fd, struct iovec *v, int n)
{
    while (n > 0) {
        ssize_t w = writev(fd, v, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        while (n > 0 && (size_t)w >= v->iov_len) {
            w -= (ssize_t)v->iov_len;
            v++;
            n--;
        }
        if (n > 0) {
            v->iov_base = (char *)v->iov_base + w;
            v->iov_len -= (size_t)w;
        }
    }
}

static void respond(int fd, const char *path, size_t n)
{
    if (n == 1 && path[0] == '/') {
        path = "/index.html";
        n = 11;
    }
    file_t *f = lookup(path, n);
    struct iovec v[2];
    if (f) {
        v[0] = (struct iovec){f->head, f->head_len};
        v[1] = (struct iovec){f->body, f->body_len};
    } else {
        v[0] = (struct iovec){notfound_head, notfound_head_len};
        v[1] = (struct iovec){"not found\n", 10};
    }
    send_all(fd, v, 2);
}

/* serve every complete request in the buffer; returns bytes consumed */
static size_t serve(int fd, conn_t *c)
{
    size_t used = 0;
    for (;;) {
        char *start = c->buf + used;
        size_t left = c->len - used;
        char *end = memmem(start, left, "\r\n\r\n", 4);
        if (!end)
            return used;
        char *p = start + 4, *sp = p;
        while (sp < end && *sp != ' ')
            sp++;
        respond(fd, p, (size_t)(sp - p));
        used += (size_t)(end + 4 - start);
    }
}

int main(int argc, char **argv)
{
    if (argc != 3) {
        fprintf(stderr, "usage: nullsrv PORT ROOT_DIR\n");
        return 2;
    }
    signal(SIGPIPE, SIG_IGN);
    root_len = strlen(argv[2]);
    while (root_len > 1 && argv[2][root_len - 1] == '/')
        root_len--;
    if (nftw(argv[2], add_file, 16, FTW_PHYS) != 0) {
        perror("nullsrv: load");
        return 1;
    }
    notfound_head_len = (size_t)snprintf(notfound_head, sizeof notfound_head,
        "HTTP/1.1 404 Not Found\r\nContent-Length: 10\r\nConnection: keep-alive\r\n\r\n");

    int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    int one = 1;
    setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    struct sockaddr_in sa = {.sin_family = AF_INET, .sin_port = htons((uint16_t)atoi(argv[1]))};
    if (bind(lfd, (struct sockaddr *)&sa, sizeof sa) != 0 || listen(lfd, 64) != 0) {
        perror("nullsrv: listen");
        return 1;
    }
    int ep = epoll_create1(EPOLL_CLOEXEC);
    struct epoll_event ev = {.events = EPOLLIN, .data.ptr = NULL};
    epoll_ctl(ep, EPOLL_CTL_ADD, lfd, &ev);
    printf("listening\n");
    fflush(stdout);

    struct epoll_event evs[64];
    for (;;) {
        int n = epoll_wait(ep, evs, 64, -1);
        for (int k = 0; k < n; k++) {
            if (evs[k].data.ptr == NULL) {
                int cfd = accept4(lfd, NULL, NULL, SOCK_CLOEXEC);
                if (cfd < 0)
                    continue;
                setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
                conn_t *c = calloc(1, sizeof *c);
                c->fd = cfd;
                struct epoll_event cev = {.events = EPOLLIN, .data.ptr = c};
                epoll_ctl(ep, EPOLL_CTL_ADD, cfd, &cev);
                continue;
            }
            conn_t *c = evs[k].data.ptr;
            size_t room = REQ_BUF - c->len;
            ssize_t r = room ? recv(c->fd, c->buf + c->len, room, 0) : 0;
            if (r <= 0) {
                close(c->fd);
                free(c);
                continue;
            }
            c->len += (size_t)r;
            size_t used = serve(c->fd, c);
            memmove(c->buf, c->buf + used, c->len - used);
            c->len -= used;
        }
    }
}
