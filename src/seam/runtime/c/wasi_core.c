/* WASI preview1 core: args/environ, clocks, random, fds, paths.
 *
 * Struct layouts follow the preview1 ABI exactly (fdstat 24 bytes,
 * filestat 64 bytes, prestat 8 bytes, dirent 24 bytes + name). All guest
 * pointers go through lm_ptr, which traps rather than faulting. */
#include "rt.h"
#include "abi.h"

uint32_t rt_errno_to_wasi(long r)
{
    switch (-r) {
    case 0: return W_SUCCESS;
    case EACCES: return W_ACCES;
    case EADDRINUSE: return W_ADDRINUSE;
    case EADDRNOTAVAIL: return W_ADDRNOTAVAIL;
    case EAFNOSUPPORT: return W_AFNOSUPPORT;
    case EAGAIN: return W_AGAIN;
    case EALREADY: return W_ALREADY;
    case EBADF: return W_BADF;
    case ECONNABORTED: return W_CONNABORTED;
    case ECONNREFUSED: return W_CONNREFUSED;
    case ECONNRESET: return W_CONNRESET;
    case EFAULT: return W_FAULT;
    case EINTR: return W_INTR;
    case EINVAL: return W_INVAL;
    case EISCONN: return W_ISCONN;
    case EMFILE: return W_MFILE;
    case ENFILE: return W_NFILE;
    case ENOBUFS: return W_NOBUFS;
    case ENOENT: return W_NOENT;
    case ENOMEM: return W_NOMEM;
    case ENOTCONN: return W_NOTCONN;
    case ENOTSOCK: return W_NOTSOCK;
    case EPIPE: return W_PIPE;
    case EPROTO: return W_PROTO;
    case ETIMEDOUT: return W_TIMEDOUT;
    default: return W_IO;
    }
}

/* ---- args / environ ---- */

static uint32_t strings_sizes_get(int count, const char *const *strings,
                                  uint32_t count_out, uint32_t bufsize_out)
{
    uint32_t total = 0;
    for (int i = 0; i < count; i++)
        total += (uint32_t)strlen(strings[i]) + 1;
    lm_set_u32(count_out, (uint32_t)count);
    lm_set_u32(bufsize_out, total);
    return W_SUCCESS;
}

static uint32_t strings_get(int count, const char *const *strings,
                            uint32_t ptrs, uint32_t buf)
{
    uint32_t off = buf;
    for (int i = 0; i < count; i++) {
        size_t n = strlen(strings[i]) + 1;
        memcpy(lm_ptr(off, (uint32_t)n), strings[i], n);
        lm_set_u32(ptrs + 4u * (uint32_t)i, off);
        off += (uint32_t)n;
    }
    return W_SUCCESS;
}

uint32_t wasi_args_sizes_get(uint32_t argc_out, uint32_t bufsize_out)
{
    return strings_sizes_get(rt_argc, rt_argv, argc_out, bufsize_out);
}

uint32_t wasi_args_get(uint32_t argv, uint32_t argv_buf)
{
    return strings_get(rt_argc, rt_argv, argv, argv_buf);
}

uint32_t wasi_environ_sizes_get(uint32_t envc_out, uint32_t bufsize_out)
{
    return strings_sizes_get(rt_envc, rt_envv, envc_out, bufsize_out);
}

uint32_t wasi_environ_get(uint32_t environ_ptrs, uint32_t environ_buf)
{
    return strings_get(rt_envc, rt_envv, environ_ptrs, environ_buf);
}

/* ---- clocks / random / proc ---- */

uint32_t wasi_clock_res_get(uint32_t id, uint32_t res_out)
{
    if (id > 1)
        return W_INVAL;
    struct timespec ts;
    sys_clock_getres((int)id, &ts); /* WASI's clock ids 0 and 1 are Linux's */
    lm_set_u64(res_out, (uint64_t)ts.tv_sec * 1000000000ull + (uint64_t)ts.tv_nsec);
    return W_SUCCESS;
}

uint32_t wasi_clock_time_get(uint32_t id, uint64_t precision, uint32_t time_out)
{
    (void)precision;
    if (id > 1)
        return W_INVAL;
    lm_set_u64(time_out, rt_now_ns((int)id));
    return W_SUCCESS;
}

uint32_t wasi_random_get(uint32_t buf, uint32_t len)
{
    uint8_t *p = lm_ptr(buf, len);
    uint32_t r = W_SUCCESS;
    int was = prof_enter(P_HOSTIO);
    for (uint32_t done = 0; done < len;) {
        long n = sys_getrandom(p + done, len - done);
        if (n >= 0)
            done += (uint32_t)n;
        else if (n != -EINTR) {
            r = rt_errno_to_wasi(n);
            break;
        }
    }
    prof_enter(was);
    return r;
}

void proc_exit(uint32_t code)
{
    rt_exit((int)code);
}

uint32_t wasi_sched_yield(void)
{
    rt_flush_sends(); /* the guest gives way: what it sent leaves now */
    return W_SUCCESS;
}

/* ---- fd operations ---- */

uint32_t wasi_fd_write(uint32_t fd, uint32_t iovs, uint32_t iovs_len, uint32_t nwritten)
{
    fd_entry *e = rt_fd_get(fd);
    return e ? rt_iov_xfer(e, 1, iovs, iovs_len, 0, nwritten) : W_BADF;
}

uint32_t wasi_fd_read(uint32_t fd, uint32_t iovs, uint32_t iovs_len, uint32_t nread)
{
    fd_entry *e = rt_fd_get(fd);
    return e ? rt_iov_xfer(e, 0, iovs, iovs_len, 0, nread) : W_BADF;
}

uint32_t wasi_fd_close(uint32_t fd)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    if (fd < 4) /* keep stdio and the preopen pinned */
        return fd <= 2 ? W_SUCCESS : W_BADF;
    if (e->kind == FK_SOCKET && e->host_fd >= 0) {
        rt_flush_sends();
        int was = prof_enter(P_HOSTIO);
        sys_close(e->host_fd);
        prof_enter(was);
    }
    memset(e, 0, sizeof *e);
    return W_SUCCESS;
}

uint32_t wasi_fd_seek(uint32_t fd, uint64_t offset, uint32_t whence, uint32_t newoffset_out)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    if (e->kind != FK_TARFILE)
        return e->kind == FK_TARDIR ? W_ISDIR : W_SPIPE;
    int64_t soff = (int64_t)offset;
    int64_t target;
    if (whence == 0)
        target = soff;
    else if (whence == 1)
        target = (int64_t)e->cursor + soff;
    else if (whence == 2)
        target = (int64_t)e->node->size + soff;
    else
        return W_INVAL;
    if (target < 0 || (uint64_t)target > e->node->size)
        return W_INVAL;
    e->cursor = (uint64_t)target;
    lm_set_u64(newoffset_out, e->cursor);
    return W_SUCCESS;
}

uint32_t wasi_fd_fdstat_get(uint32_t fd, uint32_t out)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    uint8_t *p = lm_ptr(out, 24);
    memset(p, 0, 24);
    uint64_t rights = 0;
    uint8_t ft = FT_UNKNOWN;
    switch (e->kind) {
    case FK_STDIO:
        ft = FT_CHARACTER_DEVICE;
        rights = (fd == 0 ? RIGHT_FD_READ : RIGHT_FD_WRITE) | RIGHT_POLL_FD_READWRITE;
        break;
    case FK_TARFILE:
        ft = FT_REGULAR_FILE;
        rights = RIGHT_FD_READ | RIGHT_FD_SEEK | RIGHT_FD_TELL | RIGHT_FD_FILESTAT_GET
                 | RIGHT_POLL_FD_READWRITE;
        break;
    case FK_TARDIR:
        ft = FT_DIRECTORY;
        rights = RIGHT_PATH_OPEN | RIGHT_FD_READDIR | RIGHT_PATH_FILESTAT_GET
                 | RIGHT_FD_FILESTAT_GET;
        break;
    case FK_SOCKET:
        ft = FT_SOCKET_STREAM;
        rights = RIGHT_FD_READ | RIGHT_FD_WRITE | RIGHT_POLL_FD_READWRITE
                 | RIGHT_SOCK_SHUTDOWN | RIGHT_SOCK_ACCEPT;
        break;
    }
    p[0] = ft;
    memcpy(p + 2, &e->fdflags, 2);
    memcpy(p + 8, &rights, 8);
    memcpy(p + 16, &rights, 8);
    return W_SUCCESS;
}

uint32_t wasi_fd_fdstat_set_flags(uint32_t fd, uint32_t flags)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    if (flags & ~(uint32_t)(FDFLAG_APPEND | FDFLAG_NONBLOCK))
        return W_INVAL;
    e->fdflags = (uint16_t)flags;
    if (e->kind == FK_STDIO || e->kind == FK_SOCKET)
        return rt_errno_to_wasi(rt_fd_set_nonblock(e, (flags & FDFLAG_NONBLOCK) != 0));
    return W_SUCCESS;
}

static void fill_filestat(uint8_t *p, const tar_node *n)
{
    memset(p, 0, 64);
    uint64_t dev = 1, ino = (uint64_t)(n - rt_fs_nodes) + 1, nlink = 1;
    uint64_t mtime_ns = n->mtime * 1000000000ull;
    memcpy(p + 0, &dev, 8);
    memcpy(p + 8, &ino, 8);
    p[16] = n->is_dir ? FT_DIRECTORY : FT_REGULAR_FILE;
    memcpy(p + 24, &nlink, 8);
    memcpy(p + 32, &n->size, 8);
    memcpy(p + 40, &mtime_ns, 8); /* atim */
    memcpy(p + 48, &mtime_ns, 8); /* mtim */
    memcpy(p + 56, &mtime_ns, 8); /* ctim */
}

uint32_t wasi_fd_filestat_get(uint32_t fd, uint32_t out)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    if (e->kind == FK_TARFILE || e->kind == FK_TARDIR) {
        fill_filestat(lm_ptr(out, 64), e->node);
    } else {
        uint8_t *p = lm_ptr(out, 64);
        memset(p, 0, 64);
        p[16] = e->kind == FK_SOCKET ? FT_SOCKET_STREAM : FT_CHARACTER_DEVICE;
    }
    return W_SUCCESS;
}

uint32_t wasi_path_filestat_get(uint32_t fd, uint32_t flags, uint32_t path, uint32_t path_len,
                                uint32_t out)
{
    (void)flags;
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    if (e->kind != FK_TARDIR)
        return W_NOTDIR;
    int werr;
    const tar_node *n = rt_fs_lookup_at(e->node, lm_ptr(path, path_len), path_len, &werr);
    if (!n)
        return (uint32_t)werr;
    fill_filestat(lm_ptr(out, 64), n);
    return W_SUCCESS;
}

uint32_t wasi_fd_prestat_get(uint32_t fd, uint32_t out)
{
    if (fd != 3 || !rt_fd_get(fd)) /* only the root preopen */
        return W_BADF;
    uint8_t *p = lm_ptr(out, 8);
    memset(p, 0, 8);
    p[0] = 0; /* preopentype::dir */
    uint32_t name_len = 1; /* "/" */
    memcpy(p + 4, &name_len, 4);
    return W_SUCCESS;
}

uint32_t wasi_fd_prestat_dir_name(uint32_t fd, uint32_t path, uint32_t path_len)
{
    if (fd != 3 || !rt_fd_get(fd))
        return W_BADF;
    if (path_len < 1)
        return W_INVAL;
    memcpy(lm_ptr(path, 1), "/", 1);
    return W_SUCCESS;
}

uint32_t wasi_path_open(uint32_t dirfd, uint32_t dirflags, uint32_t path, uint32_t path_len,
                        uint32_t oflags, uint64_t rights_base, uint64_t rights_inheriting,
                        uint32_t fdflags, uint32_t fd_out)
{
    (void)dirflags;
    (void)rights_base;
    (void)rights_inheriting;
    fd_entry *e = rt_fd_get(dirfd);
    if (!e)
        return W_BADF;
    if (e->kind != FK_TARDIR)
        return W_NOTDIR;
    if (oflags & (OFLAG_CREAT | OFLAG_TRUNC))
        return W_ROFS; /* read-only filesystem */
    int werr;
    const tar_node *n = rt_fs_lookup_at(e->node, lm_ptr(path, path_len), path_len, &werr);
    if (!n)
        return (uint32_t)werr;
    if ((oflags & OFLAG_DIRECTORY) && !n->is_dir)
        return W_NOTDIR;
    int nfd = rt_fd_alloc();
    if (nfd < 0)
        return W_NFILE;
    rt_fdt[nfd].kind = n->is_dir ? FK_TARDIR : FK_TARFILE;
    rt_fdt[nfd].node = n;
    rt_fdt[nfd].cursor = 0;
    rt_fdt[nfd].fdflags = (uint16_t)fdflags;
    lm_set_u32(fd_out, (uint32_t)nfd);
    return W_SUCCESS;
}

uint32_t wasi_fd_readdir(uint32_t fd, uint32_t buf, uint32_t buf_len, uint64_t cookie,
                         uint32_t used_out)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e)
        return W_BADF;
    if (e->kind != FK_TARDIR)
        return W_NOTDIR;
    int me = (int)(e->node - rt_fs_nodes);
    /* children enumerated in node order; the cookie is the ordinal */
    uint32_t used = 0;
    uint64_t ordinal = 0;
    for (int i = 0; i < rt_fs_count && used < buf_len; i++) {
        const tar_node *n = &rt_fs_nodes[i];
        if (n->parent != me)
            continue;
        if (ordinal++ < cookie)
            continue;
        const char *name = rt_fs_basename(n);
        uint32_t namlen = (uint32_t)strlen(name);
        uint8_t dirent[24];
        memset(dirent, 0, sizeof dirent);
        uint64_t next = ordinal; /* cookie of the entry after this one */
        uint64_t ino = (uint64_t)i + 1;
        memcpy(dirent + 0, &next, 8);
        memcpy(dirent + 8, &ino, 8);
        memcpy(dirent + 16, &namlen, 4);
        dirent[20] = n->is_dir ? FT_DIRECTORY : FT_REGULAR_FILE;
        uint32_t take = buf_len - used < 24 ? buf_len - used : 24;
        memcpy(lm_ptr(buf + used, take), dirent, take);
        used += take;
        if (take < 24)
            break;
        take = buf_len - used < namlen ? buf_len - used : namlen;
        memcpy(lm_ptr(buf + used, take), name, take);
        used += take;
        if (take < namlen)
            break;
    }
    lm_set_u32(used_out, used);
    return W_SUCCESS;
}
