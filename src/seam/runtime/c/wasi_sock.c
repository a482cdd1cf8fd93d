/* WasmEdge-compatible socket extension over host TCP/IPv4 sockets.
 *
 * ABI pinned in docs/sock-abi.md: address families UNSPEC=0/INET4=1/INET6=2,
 * socket types ANY=0/DGRAM=1/STREAM=2, address record {buf_ptr, buf_len} with
 * raw network-order IPv4 bytes, ports in host order, and the preview1-aligned
 * three-argument sock_accept(fd, fdflags, fd_out).
 *
 * The explicit state machine (created -> bound -> listening, or
 * created/bound -> connected) is stricter than POSIX: operations from a
 * wrong state return a defined errno instead of relying on host behavior.
 * sock_send and sock_recv share rt_iov_xfer, and its state rules, with
 * fd_write and fd_read. */
#include "rt.h"
#include "abi.h"

#define AF_W_UNSPEC 0u
#define AF_W_INET4 1u
#define AF_W_INET6 2u
#define SOCK_W_ANY 0u
#define SOCK_W_DGRAM 1u
#define SOCK_W_STREAM 2u

#define RIFLAG_RECV_PEEK 0x1u
#define RIFLAG_RECV_WAITALL 0x2u
#define SDFLAG_RD 0x1u
#define SDFLAG_WR 0x2u

/* the WasmEdge address record: {buf: u32 ptr, buf_len: u32} */
static uint32_t read_addr_v4(uint32_t addr_rec, struct in_addr *out)
{
    uint32_t buf = lm_get_u32(addr_rec);
    uint32_t buf_len = lm_get_u32(addr_rec + 4);
    if (buf_len < 4)
        return W_INVAL;
    memcpy(&out->s_addr, lm_ptr(buf, 4), 4);
    return W_SUCCESS;
}

static uint32_t write_addr_v4(uint32_t addr_rec, const struct in_addr *in)
{
    uint32_t buf = lm_get_u32(addr_rec);
    uint32_t buf_len = lm_get_u32(addr_rec + 4);
    if (buf_len < 4)
        return W_INVAL;
    memcpy(lm_ptr(buf, 4), &in->s_addr, 4);
    return W_SUCCESS;
}

uint32_t wasi_sock_open(uint32_t af, uint32_t socktype, uint32_t fd_out)
{
    if (af != AF_W_INET4)
        return W_AFNOSUPPORT;
    if (socktype != SOCK_W_STREAM)
        return W_INVAL; /* only TCP is in scope */
    int nfd = rt_fd_alloc();
    if (nfd < 0)
        return W_NFILE;
    long hfd = sys_socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (hfd < 0)
        return rt_errno_to_wasi(hfd);
    rt_fdt[nfd].kind = FK_SOCKET;
    rt_fdt[nfd].sstate = SS_CREATED;
    rt_fdt[nfd].host_fd = (int)hfd;
    rt_fdt[nfd].fdflags = 0;
    lm_set_u32(fd_out, (uint32_t)nfd);
    return W_SUCCESS;
}

static fd_entry *get_sock(uint32_t fd, uint32_t *err)
{
    fd_entry *e = rt_fd_get(fd);
    if (!e) {
        *err = W_BADF;
        return NULL;
    }
    if (e->kind != FK_SOCKET) {
        *err = W_NOTSOCK;
        return NULL;
    }
    *err = W_SUCCESS;
    return e;
}

uint32_t wasi_sock_bind(uint32_t fd, uint32_t addr_rec, uint32_t port)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    if (e->sstate != SS_CREATED)
        return W_INVAL;
    struct sockaddr_in sa;
    memset(&sa, 0, sizeof sa);
    sa.sin_family = AF_INET;
    sa.sin_port = __cpu_to_be16((uint16_t)port);
    err = read_addr_v4(addr_rec, &sa.sin_addr);
    if (err != W_SUCCESS)
        return err;
    int one = 1;
    sys_setsockopt(e->host_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    long rc = sys_bind(e->host_fd, &sa, sizeof sa);
    if (rc != 0)
        return rt_errno_to_wasi(rc);
    e->sstate = SS_BOUND;
    return W_SUCCESS;
}

uint32_t wasi_sock_listen(uint32_t fd, uint32_t backlog)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    if (e->sstate != SS_BOUND) /* listen before bind is a state error here */
        return W_INVAL;
    long rc = sys_listen(e->host_fd, (int)(backlog ? backlog : 16));
    if (rc != 0)
        return rt_errno_to_wasi(rc);
    e->sstate = SS_LISTENING;
    return W_SUCCESS;
}

uint32_t wasi_sock_accept(uint32_t fd, uint32_t flags, uint32_t fd_out)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    if (e->sstate != SS_LISTENING)
        return W_INVAL;
    int nfd = rt_fd_alloc();
    if (nfd < 0)
        return W_NFILE;
    rt_flush_sends();
    long hfd;
    do {
        hfd = sys_accept4(e->host_fd, 0);
    } while (hfd == -EINTR && !(e->fdflags & FDFLAG_NONBLOCK));
    if (hfd < 0)
        return rt_errno_to_wasi(hfd);
    rt_fdt[nfd].kind = FK_SOCKET;
    rt_fdt[nfd].sstate = SS_CONNECTED;
    rt_fdt[nfd].host_fd = (int)hfd;
    rt_fdt[nfd].fdflags = (uint16_t)flags;
    int one = 1;
    sys_setsockopt((int)hfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (flags & FDFLAG_NONBLOCK)
        rt_fd_set_nonblock(&rt_fdt[nfd], 1);
    lm_set_u32(fd_out, (uint32_t)nfd);
    return W_SUCCESS;
}

uint32_t wasi_sock_connect(uint32_t fd, uint32_t addr_rec, uint32_t port)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    if (e->sstate != SS_CREATED && e->sstate != SS_BOUND)
        return e->sstate == SS_CONNECTED ? W_ISCONN : W_INVAL;
    struct sockaddr_in sa;
    memset(&sa, 0, sizeof sa);
    sa.sin_family = AF_INET;
    sa.sin_port = __cpu_to_be16((uint16_t)port);
    err = read_addr_v4(addr_rec, &sa.sin_addr);
    if (err != W_SUCCESS)
        return err;
    rt_flush_sends();
    long rc;
    do {
        rc = sys_connect(e->host_fd, &sa, sizeof sa);
    } while (rc == -EINTR);
    if (rc != 0)
        return rt_errno_to_wasi(rc);
    e->sstate = SS_CONNECTED;
    int one = 1;
    sys_setsockopt(e->host_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return W_SUCCESS;
}

uint32_t wasi_sock_recv(uint32_t fd, uint32_t ri_data, uint32_t ri_data_len, uint32_t ri_flags,
                        uint32_t ro_datalen, uint32_t ro_flags)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    int flags = 0;
    if (ri_flags & RIFLAG_RECV_PEEK)
        flags |= MSG_PEEK;
    if (ri_flags & RIFLAG_RECV_WAITALL)
        flags |= MSG_WAITALL;
    err = rt_iov_xfer(e, 0, ri_data, ri_data_len, flags, ro_datalen);
    if (err == W_SUCCESS)
        memset(lm_ptr(ro_flags, 2), 0, 2); /* u16 roflags: stream sockets never truncate */
    return err;
}

uint32_t wasi_sock_send(uint32_t fd, uint32_t si_data, uint32_t si_data_len, uint32_t si_flags,
                        uint32_t so_datalen)
{
    (void)si_flags;
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    return e ? rt_iov_xfer(e, 1, si_data, si_data_len, 0, so_datalen) : err;
}

uint32_t wasi_sock_shutdown(uint32_t fd, uint32_t how)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    if (e->sstate != SS_CONNECTED && e->sstate != SS_SHUT)
        return W_NOTCONN;
    int h;
    if (how == SDFLAG_RD)
        h = SHUT_RD;
    else if (how == SDFLAG_WR)
        h = SHUT_WR;
    else if (how == (SDFLAG_RD | SDFLAG_WR))
        h = SHUT_RDWR;
    else
        return W_INVAL;
    rt_flush_sends(); /* held bytes go ahead of the FIN */
    long rc = sys_shutdown(e->host_fd, h);
    if (rc != 0)
        return rt_errno_to_wasi(rc);
    e->sstate = SS_SHUT;
    return W_SUCCESS;
}

static uint32_t getaddr_common(uint32_t fd, uint32_t addr_rec, uint32_t type_out,
                               uint32_t port_out, int peer)
{
    uint32_t err;
    fd_entry *e = get_sock(fd, &err);
    if (!e)
        return err;
    struct sockaddr_in sa;
    unsigned slen = sizeof sa;
    long rc = peer ? sys_getpeername(e->host_fd, &sa, &slen)
                   : sys_getsockname(e->host_fd, &sa, &slen);
    if (rc != 0)
        return rt_errno_to_wasi(rc);
    err = write_addr_v4(addr_rec, &sa.sin_addr);
    if (err == W_SUCCESS) {
        lm_set_u32(type_out, 4); /* address type: IPv4 */
        lm_set_u32(port_out, __be16_to_cpu(sa.sin_port));
    }
    return err;
}

uint32_t wasi_sock_getlocaladdr(uint32_t fd, uint32_t addr_rec, uint32_t type_out,
                              uint32_t port_out)
{
    return getaddr_common(fd, addr_rec, type_out, port_out, 0);
}

uint32_t wasi_sock_getpeeraddr(uint32_t fd, uint32_t addr_rec, uint32_t type_out,
                              uint32_t port_out)
{
    return getaddr_common(fd, addr_rec, type_out, port_out, 1);
}
