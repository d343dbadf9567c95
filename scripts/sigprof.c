/*
 * A SIGPROF sampler for one process, built and preloaded by
 * scripts/profile.sh (LD_PRELOAD). At load it takes itself out of the
 * environment, so the processes the program starts run unsampled, and
 * arms ITIMER_PROF on its own process only, at 1 kHz of CPU time (all
 * its threads); every tick records the interrupted program counter. At
 * exit it writes, to `sigprof.PID` in the working directory, one line
 * per sample that fell inside the program itself, `0x` and the address
 * as the ELF file numbers it (the load bias subtracted, so
 * `addr2line -a` prints it back the same), and a last line `other N`
 * counting samples elsewhere (libc, the loader).
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static uintptr_t samples[MAX_SAMPLES];
static unsigned long taken;

static void on_tick(int sig, siginfo_t *info, void *context)
{
    ucontext_t *uc = context;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    (void)sig;
    (void)info;
    if (i < MAX_SAMPLES)
#if defined(__x86_64__)
        samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        samples[i] = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "no program counter for this architecture"
#endif
}

__attribute__((constructor)) static void start(void)
{
    struct sigaction on = {0};
    struct itimerval every = {{0, 1000}, {0, 1000}};
    unsetenv("LD_PRELOAD");
    on.sa_sigaction = on_tick;
    on.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&on.sa_mask);
    sigaction(SIGPROF, &on, NULL);
    setitimer(ITIMER_PROF, &every, NULL);
}

/* The program's load bias and loaded span: the first object listed. */
struct span { uintptr_t bias, lo, hi; };

static int program_span(struct dl_phdr_info *info, size_t size, void *data)
{
    struct span *s = data;
    (void)size;
    s->bias = info->dlpi_addr;
    s->lo = UINTPTR_MAX;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD)
            continue;
        uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
        if (lo < s->lo)
            s->lo = lo;
        if (lo + ph->p_memsz > s->hi)
            s->hi = lo + ph->p_memsz;
    }
    return 1;
}

__attribute__((destructor)) static void stop(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    struct span s = {0, 0, 0};
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES, other = 0;
    char path[64];
    setitimer(ITIMER_PROF, &off, NULL);
    dl_iterate_phdr(program_span, &s);
    snprintf(path, sizeof path, "sigprof.%d", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    for (unsigned long i = 0; i < n; i++) {
        if (samples[i] >= s.lo && samples[i] < s.hi)
            fprintf(out, "0x%016lx\n", (unsigned long)(samples[i] - s.bias));
        else
            other++;
    }
    fprintf(out, "other %lu\n", other);
    fclose(out);
}
