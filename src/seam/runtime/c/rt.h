/* Shared declarations for the libOS runtime that gets statically linked
 * with compiled Wasm objects, and with nothing else: the runtime reaches the
 * host only through sys.h. The process runs on one thread. */
#ifndef SEAM_RT_H
#define SEAM_RT_H

#include "sys.h"

/* ---- WASI preview1 errno values (ABI) ---- */
enum {
    W_SUCCESS = 0,
    W_2BIG = 1,
    W_ACCES = 2,
    W_ADDRINUSE = 3,
    W_ADDRNOTAVAIL = 4,
    W_AFNOSUPPORT = 5,
    W_AGAIN = 6,
    W_ALREADY = 7,
    W_BADF = 8,
    W_CONNABORTED = 13,
    W_CONNREFUSED = 14,
    W_CONNRESET = 15,
    W_FAULT = 21,
    W_INTR = 27,
    W_INVAL = 28,
    W_IO = 29,
    W_ISCONN = 30,
    W_ISDIR = 31,
    W_MFILE = 33,
    W_NFILE = 41,
    W_NOBUFS = 42,
    W_NOENT = 44,
    W_NOMEM = 48,
    W_NOSYS = 52,
    W_NOTCONN = 53,
    W_NOTDIR = 54,
    W_NOTSOCK = 57,
    W_NOTSUP = 58,
    W_PIPE = 64,
    W_PROTO = 65,
    W_RANGE = 68,
    W_ROFS = 69,
    W_SPIPE = 70,
    W_TIMEDOUT = 73,
    W_NOTCAPABLE = 76,
};

/* ---- WASI filetypes / flags (ABI) ---- */
enum {
    FT_UNKNOWN = 0,
    FT_CHARACTER_DEVICE = 2,
    FT_DIRECTORY = 3,
    FT_REGULAR_FILE = 4,
    FT_SOCKET_STREAM = 6,
};
#define FDFLAG_APPEND 0x01
#define FDFLAG_NONBLOCK 0x04
#define OFLAG_CREAT 0x01
#define OFLAG_DIRECTORY 0x02
#define OFLAG_EXCL 0x04
#define OFLAG_TRUNC 0x08

#define RIGHT_FD_READ (1ull << 1)
#define RIGHT_FD_SEEK (1ull << 2)
#define RIGHT_FD_TELL (1ull << 5)
#define RIGHT_FD_WRITE (1ull << 6)
#define RIGHT_PATH_OPEN (1ull << 13)
#define RIGHT_FD_READDIR (1ull << 14)
#define RIGHT_PATH_FILESTAT_GET (1ull << 18)
#define RIGHT_FD_FILESTAT_GET (1ull << 21)
#define RIGHT_POLL_FD_READWRITE (1ull << 27)
#define RIGHT_SOCK_SHUTDOWN (1ull << 28)
#define RIGHT_SOCK_ACCEPT (1ull << 29)

/* ---- trap codes (exit status = 128 + code) ---- */
enum {
    TRAP_OUT_OF_BOUNDS = 1,
    TRAP_DIV_BY_ZERO = 2,
    TRAP_INT_OVERFLOW = 3,
    TRAP_UNREACHABLE = 4,
    TRAP_CALL_TYPE = 5,
    TRAP_TABLE_OOB = 6,
    TRAP_STACK_EXHAUSTED = 7,
};

/* prints the trap's seam-rt: line and takes the exit path with 128 + code */
void runtime_trap(uint32_t code) __attribute__((noreturn));

/* a fault at an address in [lo, lo + len) is trap `code` (one region per
 * code); rt_fault_install sets the alternate signal stack and the
 * SIGSEGV/SIGBUS handler */
void rt_fault_region(uint32_t code, const void *lo, size_t len);
int rt_fault_install(void);

/* ---- the exit path (sys.c) ---- */
/* runs entry, which must end in rt_exit, on the stack below stack_top, and
 * returns the status rt_exit was given */
int rt_run_on(void *stack_top, void (*entry)(void));
/* flushes held sends, writes the profile, and ends the process with
 * status: by returning it from rt_run_on when its entry is running, else
 * by exit_group */
void rt_exit(int status) __attribute__((noreturn));

/* ---- linear memory ---- */
int rt_mem_init(uint32_t initial_pages, uint32_t max_pages);
uint8_t *memory_base(void);
uint32_t memory_grow(uint32_t delta_pages);
uint64_t rt_mem_committed_bytes(void);

/* bounds-checked view into linear memory; traps TRAP_OUT_OF_BOUNDS */
void *lm_ptr(uint32_t addr, uint32_t len);
uint32_t lm_get_u32(uint32_t addr);
void lm_set_u32(uint32_t addr, uint32_t v);
void lm_set_u64(uint32_t addr, uint64_t v);

/* ---- tar filesystem ---- */
typedef struct tar_node {
    const char *path;    /* normalized, absolute, no trailing slash; "/" is root */
    uint8_t is_dir;
    uint32_t hash;       /* FNV-1a of path, compared first by tarfs.c's probes */
    const uint8_t *content;
    uint64_t size;
    uint64_t mtime;
    int32_t parent;
} tar_node;

/* the mounted nodes; rt_fs_nodes[0] is the root once mounted */
extern tar_node rt_fs_nodes[];
extern int rt_fs_count;

int rt_fs_mount(const uint8_t *image, uint64_t size); /* 0 ok, -1 corrupt */
const tar_node *rt_fs_lookup_at(const tar_node *base, const char *path, size_t len, int *werrno);
const char *rt_fs_basename(const tar_node *n);

/* ---- fd table ---- */
enum { FK_FREE = 0, FK_STDIO = 1, FK_TARFILE = 2, FK_TARDIR = 3, FK_SOCKET = 4 };
enum { SS_CREATED = 0, SS_BOUND = 1, SS_LISTENING = 2, SS_CONNECTED = 3, SS_SHUT = 4 };

typedef struct {
    uint8_t kind;
    uint8_t sstate;
    int host_fd;
    uint16_t fdflags;
    const tar_node *node;
    uint64_t cursor;
} fd_entry;

#define FD_TABLE_SIZE 1024
extern fd_entry rt_fdt[FD_TABLE_SIZE];

void rt_fd_init(void);
int rt_fd_alloc(void); /* lowest free index >= 4, or -1 */
fd_entry *rt_fd_get(uint32_t fd);
/* on e's host fd, after rt_flush_sends; 0 or -errno */
int rt_fd_set_nonblock(fd_entry *e, int nonblock);
/* ends the turn: sends the bytes rt_iov_xfer holds for the turn's socket */
void rt_flush_sends(void);

/* The one transfer between the guest iovec array at iovs and an fd of any
 * kind (out: guest to host); on W_SUCCESS the byte count goes to the guest
 * u32 at count_out. A directory answers ISDIR and a tar file ROFS to a
 * write; a socket sends only when connected, and receives when connected
 * or shut down, else NOTCONN. A tar file read is a copy from the image, and
 * neither charged to a bucket nor a flush point. Any other fd moves bytes
 * by one sendmsg/recvmsg (sockets) or writev/readv (stdio) per IOV_MAX
 * iovecs, after every (buf, len) has passed lm_ptr; a later small send of
 * the turn is held instead (fdtable.c). A blocking write continues after
 * short writes until all is sent; reads and non-blocking writes stop at the
 * first short transfer; EINTR is retried only on blocking fds. Once a byte
 * has moved the result is W_SUCCESS, never an errno. */
uint32_t rt_iov_xfer(fd_entry *e, int out, uint32_t iovs, uint32_t iovs_len, int flags,
                     uint32_t count_out);

/* ---- guest args/env ---- */
#define RT_MAX_ARGS 64
void rt_args_init(void); /* exits 1 on a GUEST_ARGS or GUEST_ENV it cannot hold */
extern int rt_argc;
extern const char *rt_argv[RT_MAX_ARGS];
extern int rt_envc;
extern const char *rt_envv[RT_MAX_ARGS];

/* ---- profiling ---- */
/* in the order of seam.codegen.symbols.BUCKETS; P_NONE, no bucket, is boot
 * and teardown (profile.c) */
enum { P_GUEST = 0, P_WASI, P_MEMORY, P_TIMER, P_SOCKET, P_HOSTIO, P_NBUCKETS,
       P_NONE = P_NBUCKETS };
void prof_init(void);
/* the report, when profiling is on: JSON to SEAM_PROFILE_OUT or stderr */
void prof_report(void);
/* makes b the current bucket and returns the one it replaced */
int prof_switch(int b);
/* hidden: read by every ABI entry, so one rip-relative load, not a GOT hop */
extern int prof_on __attribute__((visibility("hidden")));
/* int was = prof_enter(P_X); ... prof_enter(was); charges the stretch to
 * P_X; with profiling off it costs one load and one branch */
static inline int prof_enter(int b)
{
    return __builtin_expect(prof_on, 0) ? prof_switch(b) : b;
}

/* ---- misc ---- */
/* the WASI errno for a failed system call's return, -errno */
uint32_t rt_errno_to_wasi(long r);

/* the WASI rows and their bodies wasi_<name> are declared in the generated
 * abi.h (abi.c and wasi_*.c only) */

#endif /* SEAM_RT_H */
