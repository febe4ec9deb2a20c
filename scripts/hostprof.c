/* The sampling half of scripts/hostprof: an LD_PRELOAD shim for a machine
 * with no perf, valgrind or gdb. The constructor arms ITIMER_PROF (every ms
 * of process CPU time, which the kernel rounds up to its tick); the handler
 * stores the process CPU clock and the backtrace() return addresses; the
 * destructor writes /proc/self/maps and the samples to $HOSTPROF_OUT.
 * Without that variable it does nothing. backtrace() is not strictly
 * async-signal-safe (it is called once up front so its lazy set-up happens
 * outside the handler): a developer tool, not part of any gate. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
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
