/* The LD_PRELOAD half of scripts/hostprof, for a machine with no perf,
 * valgrind or gdb. One file, two shims: built plain it is the sampler,
 * built with -DHOSTPROF_ALLOCS it is the allocation counter. Either does
 * nothing unless $HOSTPROF_OUT names the file it writes on exit.
 *
 * The sampler: the constructor arms ITIMER_PROF (every ms of process CPU
 * time, which the kernel rounds up to its tick); the handler stores the
 * process CPU clock and the backtrace() return addresses; the destructor
 * writes /proc/self/maps and the samples. backtrace() is not strictly
 * async-signal-safe (it is called once up front so its lazy set-up happens
 * outside the handler): a developer tool, not part of any gate.
 *
 * The counter: malloc, calloc and realloc count their calls and forward to
 * glibc's own entry points (__libc_*, so no dlsym, which itself allocates);
 * the destructor writes one line, `malloc N calloc N realloc N`. The counts
 * depend only on the work the process does, not on the host clock. */
#define _GNU_SOURCE
#include <stdio.h>
#include <stdlib.h>

#ifdef HOSTPROF_ALLOCS

extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t n, size_t size);
extern void *__libc_realloc(void *p, size_t size);

static unsigned long long mallocs, callocs, reallocs;

void *malloc(size_t size) {
    __atomic_fetch_add(&mallocs, 1, __ATOMIC_RELAXED);
    return __libc_malloc(size);
}

void *calloc(size_t n, size_t size) {
    __atomic_fetch_add(&callocs, 1, __ATOMIC_RELAXED);
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t size) {
    __atomic_fetch_add(&reallocs, 1, __ATOMIC_RELAXED);
    return __libc_realloc(p, size);
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("HOSTPROF_OUT");
    if (!path) return;
    /* Read the counts before fopen, whose buffer is one more malloc. */
    unsigned long long m = mallocs, c = callocs, r = reallocs;
    FILE *out = fopen(path, "w");
    if (!out) return;
    fprintf(out, "malloc %llu calloc %llu realloc %llu\n", m, c, r);
    fclose(out);
}

#else

#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>

enum { MAX_SAMPLES = 1 << 16, DEPTH = 64, SKIP = 2 /* handler, trampoline */ };

struct sample {
    long long cpu_ns;
    int frames;
    void *pc[DEPTH];
};
static struct sample *samples;
static int taken;

static void on_prof(int sig) {
    (void)sig;
    if (taken == MAX_SAMPLES) return;
    struct sample *s = &samples[taken++];
    struct timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    s->cpu_ns = ts.tv_sec * 1000000000LL + ts.tv_nsec;
    s->frames = backtrace(s->pc, DEPTH);
}

__attribute__((constructor)) static void arm(void) {
    if (!getenv("HOSTPROF_OUT")) return;
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa = {.sa_handler = on_prof, .sa_flags = SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    if (samples) setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    const char *path = getenv("HOSTPROF_OUT");
    if (!path || !samples) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    for (int c; (c = fgetc(maps)) != EOF;) fputc(c, out);
    /* One line a sample: CPU ns, then the interrupted pc, then its callers'
     * return addresses, innermost first. */
    for (int i = 0; i < taken; i++) {
        fprintf(out, "sample %lld", samples[i].cpu_ns);
        for (int f = SKIP; f < samples[i].frames; f++) fprintf(out, " %p", samples[i].pc[f]);
        fputc('\n', out);
    }
    fclose(out);
}

#endif
