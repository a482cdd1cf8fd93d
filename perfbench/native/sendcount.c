/* Link-time probe for the self-check: counts the guest's sock_send calls.
 *
 * Linked with -Wl,--wrap=sock_send, every call to sock_send lands here
 * first and is passed on unchanged to the runtime's implementation. At
 * exit it writes "calls one_iovec two_iovecs more_iovecs" to the file
 * named by SENDCOUNT_OUT. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

uint32_t __real_sock_send(uint32_t fd, uint32_t si_data, uint32_t si_data_len, uint32_t si_flags,
                          uint32_t so_datalen);

static unsigned long calls, by_iovecs[3];

static void report(void)
{
    const char *path = getenv("SENDCOUNT_OUT");
    FILE *f = path ? fopen(path, "w") : NULL;
    if (!f)
        return;
    fprintf(f, "%lu %lu %lu %lu\n", calls, by_iovecs[0], by_iovecs[1], by_iovecs[2]);
    fclose(f);
}

__attribute__((constructor)) static void init(void)
{
    atexit(report);
}

uint32_t __wrap_sock_send(uint32_t fd, uint32_t si_data, uint32_t si_data_len, uint32_t si_flags,
                          uint32_t so_datalen)
{
    calls++;
    by_iovecs[si_data_len == 1 ? 0 : si_data_len == 2 ? 1 : 2]++;
    return __real_sock_send(fd, si_data, si_data_len, si_flags, so_datalen);
}
