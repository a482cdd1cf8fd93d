/* Read-only in-memory filesystem over a ustar image.
 *
 * The image buffer is borrowed, never copied or written: file content is
 * served as (pointer, length) extents straight into it. seam.tarfs.pack_dir
 * refuses any tree over MAX_PATH - 1 bytes of relative path or MAX_NODES - 1
 * entries (the root is a node), so whatever it packs mounts here.
 *
 * The tables are sized by the limits but touched only as far as the image
 * fills them, so a server's resident set grows with what it mounts. Each
 * node's normalized path is stored back to back in one arena, which holds
 * MAX_NODES paths of the longest length. Nodes are found by path through an
 * open-addressed hash built as they are added: FNV-1a over the path, probed
 * linearly in a power-of-two prefix of `slots`. The prefix starts at
 * MIN_SLOTS and doubles before the load passes 1/2, placing every node again
 * from the hash it keeps; a probe compares that hash before it calls strcmp.
 * So a lookup costs one hash and about one strcmp, and a mount is linear in
 * its entries. Growing clears the whole prefix it takes, so slots past the
 * prefix may hold a previous mount's entries: a process may mount more than
 * once (the tests, through the shared library), and each mount clears only
 * the first MIN_SLOTS. */
#include "rt.h"

#define MAX_NODES 8192
#define MAX_PATH 255

tar_node rt_fs_nodes[MAX_NODES];
int rt_fs_count;
static char arena[MAX_NODES * (MAX_PATH + 1)];
static size_t arena_used;

#define HASH_SLOTS (2 * MAX_NODES)
#define MIN_SLOTS 64
static uint16_t slots[HASH_SLOTS]; /* node index + 1, or 0 when empty */
static uint32_t mask = MIN_SLOTS - 1; /* slots[0..mask] are in use */
_Static_assert((MIN_SLOTS & (MIN_SLOTS - 1)) == 0 && MIN_SLOTS <= HASH_SLOTS
               && (HASH_SLOTS & (HASH_SLOTS - 1)) == 0 && MAX_NODES < UINT16_MAX,
               "slots are masked and hold node index + 1");

const char *rt_fs_basename(const tar_node *n)
{
    const char *slash = strrchr(n->path, '/');
    return slash ? slash + 1 : n->path;
}

static uint32_t fnv1a(const char *path)
{
    uint32_t h = 2166136261u;
    for (const char *c = path; *c; c++)
        h = (h ^ (uint8_t)*c) * 16777619u;
    return h;
}

/* the slot holding the node of path, whose hash is h, or the empty slot
 * where it goes */
static uint16_t *slot_of(const char *path, uint32_t h)
{
    uint32_t i = h & mask;
    while (slots[i]) {
        const tar_node *n = &rt_fs_nodes[slots[i] - 1];
        if (n->hash == h && strcmp(n->path, path) == 0)
            break;
        i = (i + 1) & mask;
    }
    return &slots[i];
}

static int find_node(const char *path)
{
    return *slot_of(path, fnv1a(path)) - 1;
}

/* double the prefix of slots in use and place every node in it again */
static void grow(void)
{
    mask = 2 * mask + 1;
    memset(slots, 0, (mask + 1) * sizeof *slots);
    for (int i = 0; i < rt_fs_count; i++)
        *slot_of(rt_fs_nodes[i].path, rt_fs_nodes[i].hash) = (uint16_t)(i + 1);
}

/* Walk len bytes of path from the absolute, normalized directory path in
 * cur, leaving the result in cur: empty and "." segments are skipped and
 * ".." drops the last segment. Returns W_SUCCESS, W_INVAL when ".." climbs
 * above "/", or W_NOENT when the path outgrows MAX_PATH bytes. */
static int walk(char cur[MAX_PATH + 1], const char *path, size_t len)
{
    size_t cl = strlen(cur);
    for (size_t i = 0, j; i < len; i = j + 1) {
        for (j = i; j < len && path[j] != '/'; j++)
            ;
        size_t seg = j - i;
        if (seg == 0 || (seg == 1 && path[i] == '.'))
            continue;
        if (seg == 2 && path[i] == '.' && path[i + 1] == '.') {
            if (cl == 1)
                return W_INVAL;
            char *slash = strrchr(cur, '/');
            cl = slash == cur ? 1 : (size_t)(slash - cur);
            cur[cl] = 0;
            continue;
        }
        if (cl + 1 + seg > MAX_PATH)
            return W_NOENT;
        if (cl > 1)
            cur[cl++] = '/';
        memcpy(cur + cl, path + i, seg);
        cl += seg;
        cur[cl] = 0;
    }
    return W_SUCCESS;
}

/* index of the node at path, created along with any missing parent
 * directories; -1 when the node table is full */
static int add_node(const char *path, int is_dir, const uint8_t *content,
                    uint64_t size, uint64_t mtime)
{
    uint32_t h = fnv1a(path);
    uint16_t *slot = slot_of(path, h);
    int idx = *slot - 1;
    if (idx < 0) {
        if (rt_fs_count >= MAX_NODES)
            return -1;
        idx = rt_fs_count++;
        size_t len = strlen(path) + 1;
        rt_fs_nodes[idx].path = memcpy(arena + arena_used, path, len);
        arena_used += len;
        rt_fs_nodes[idx].hash = h;
        rt_fs_nodes[idx].parent = -1;
        if (2u * rt_fs_count > mask + 1)
            grow(); /* which places the new node too */
        else
            *slot = (uint16_t)(idx + 1);
        if (strcmp(path, "/") != 0) {
            char parent[MAX_PATH + 1];
            strcpy(parent, path);
            char *slash = strrchr(parent, '/');
            if (slash == parent)
                parent[1] = 0;
            else
                *slash = 0;
            int p = find_node(parent);
            if (p < 0 && (p = add_node(parent, 1, NULL, 0, 0)) < 0)
                return -1;
            rt_fs_nodes[idx].parent = p;
        }
    } /* else a later archive entry shadows an earlier one */
    rt_fs_nodes[idx].is_dir = (uint8_t)is_dir;
    rt_fs_nodes[idx].content = content;
    rt_fs_nodes[idx].size = size;
    rt_fs_nodes[idx].mtime = mtime;
    return idx;
}

static uint64_t parse_octal(const uint8_t *field, int len)
{
    uint64_t v = 0;
    for (int i = 0; i < len; i++) {
        uint8_t c = field[i];
        if (c == 0 || c == ' ')
            break;
        if (c < '0' || c > '7')
            return (uint64_t)-1;
        v = v * 8 + (c - '0');
    }
    return v;
}

static int checksum_ok(const uint8_t *hdr)
{
    uint64_t want = parse_octal(hdr + 148, 8);
    uint64_t sum = 0;
    for (int i = 0; i < 512; i++)
        sum += (i >= 148 && i < 156) ? (uint8_t)' ' : hdr[i];
    return sum == want;
}

static int corrupt(const char *what, uint64_t off)
{
    rt_print(2, "seam-rt: tarfs: %s at block %llu\n", what, (unsigned long long)(off / 512));
    return -1;
}

int rt_fs_mount(const uint8_t *image, uint64_t size)
{
    mask = MIN_SLOTS - 1; /* what lies past it, grow clears before use */
    memset(slots, 0, MIN_SLOTS * sizeof *slots);
    rt_fs_count = 0;
    arena_used = 0;
    add_node("/", 1, NULL, 0, 0);
    if (!image || size == 0)
        return 0;
    uint64_t off = 0;
    while (off + 512 <= size) {
        const uint8_t *hdr = image + off;
        int all_zero = 1;
        for (int i = 0; i < 512 && all_zero; i++)
            all_zero = hdr[i] == 0;
        if (all_zero)
            return 0; /* end-of-archive */
        if (memcmp(hdr + 257, "ustar", 5) != 0)
            return corrupt("bad magic", off);
        if (!checksum_ok(hdr))
            return corrupt("bad checksum", off);
        uint64_t fsize = parse_octal(hdr + 124, 12);
        uint64_t mtime = parse_octal(hdr + 136, 12);
        if (fsize == (uint64_t)-1)
            return corrupt("bad size field", off);
        if (mtime == (uint64_t)-1)
            return corrupt("bad mtime field", off);
        char type = (char)hdr[156];
        if (type != '0' && type != 0 && type != '5')
            return corrupt("unsupported entry type", off);

        size_t prefix_len = strnlen((const char *)hdr + 345, 155);
        size_t name_len = strnlen((const char *)hdr, 100);
        char full[155 + 1 + 100];
        size_t fl = 0;
        if (prefix_len) {
            memcpy(full, hdr + 345, prefix_len);
            fl = prefix_len;
            full[fl++] = '/';
        }
        memcpy(full + fl, hdr, name_len);
        fl += name_len;
        char name[MAX_PATH + 1] = "/";
        int werr = walk(name, full, fl);
        if (werr == W_INVAL)
            return corrupt("member escapes the root", off);
        if (werr != W_SUCCESS)
            return corrupt("member name too long", off);

        uint64_t content_off = off + 512;
        uint64_t padded = (fsize + 511) & ~511ull;
        if (content_off + padded > size)
            return corrupt("truncated entry", off);
        int is_dir = type == '5';
        const uint8_t *content = is_dir ? NULL : image + content_off;
        if (add_node(name, is_dir, content, is_dir ? 0 : fsize, mtime) < 0)
            return corrupt("node table full", off);
        off = content_off + padded;
    }
    /* ran off the end without the two zero blocks */
    return corrupt("missing end-of-archive marker", off);
}

/* resolve `path` (len bytes, not NUL-terminated) against a directory node;
 * absolute paths resolve from the root */
const tar_node *rt_fs_lookup_at(const tar_node *base, const char *path, size_t len, int *werrno)
{
    if (rt_fs_count == 0) {
        *werrno = W_NOENT;
        return NULL;
    }
    char cur[MAX_PATH + 1];
    strcpy(cur, base && !(len && path[0] == '/') ? base->path : "/");
    *werrno = walk(cur, path, len);
    if (*werrno != W_SUCCESS)
        return NULL;
    int idx = find_node(cur);
    if (idx < 0) {
        *werrno = W_NOENT;
        return NULL;
    }
    return &rt_fs_nodes[idx];
}
