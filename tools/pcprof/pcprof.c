/* pcprof: an interrupt-PC sampler, preloaded into any process.

   Build: dune builds _build/default/tools/pcprof/pcprof.so (Linux
   x86-64 only).  Run:

     LD_PRELOAD=$PWD/_build/default/tools/pcprof/pcprof.so PROGRAM ARGS...
     sh tools/pcprof/symbolize.sh pcprof.<pid>.txt 15

   On load it arms ITIMER_PROF to raise SIGPROF after every 500 us of the
   process's CPU time; the kernel checks CPU timers at its scheduler tick,
   so at most one sample per tick arrives (250 a second at CONFIG_HZ=250).
   The handler stores the interrupted instruction pointer (REG_RIP of the
   signal context).  Unlike a
   sampler written in OCaml with Sys.sigprof, whose handler runs only at
   the next poll point, this charges time spent in C (caml_modify,
   caml_hash, the collector) to the C function that spent it.  At exit it
   writes pcprof.<pid>.txt in the working directory: one line per
   distinct PC, "count object offset", where offset is relative to the
   object's load address for a position-independent object, so that
   symbolize.sh can look it up in `nm -n` of that object. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <elf.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define INTERVAL_US 500
#define MAX_SAMPLES (1 << 21)

static uintptr_t samples[MAX_SAMPLES];
static size_t n_samples;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  size_t i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES)
    samples[i] = (uintptr_t)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

static void set_timer(long us) {
  struct itimerval it = {{0, us}, {0, us}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void pcprof_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  set_timer(INTERVAL_US);
}

static int by_pc(const void *a, const void *b) {
  uintptr_t x = *(const uintptr_t *)a, y = *(const uintptr_t *)b;
  return (x > y) - (x < y);
}

/* The PC as `nm -n` numbers it: relative to the load address in a
   position-independent object, absolute in a fixed-address one. */
static void write_pc(FILE *f, const char *exe, size_t count, uintptr_t pc) {
  Dl_info dl;
  if (dladdr((void *)pc, &dl) && dl.dli_fname && dl.dli_fbase) {
    const Elf64_Ehdr *eh = dl.dli_fbase;
    uintptr_t off = eh->e_type == ET_DYN ? pc - (uintptr_t)dl.dli_fbase : pc;
    /* the main program's name is empty or argv[0]: use its full path */
    const char *obj = strchr(dl.dli_fname, '/') ? dl.dli_fname : exe;
    fprintf(f, "%zu %s %lu\n", count, obj, (unsigned long)off);
  } else
    fprintf(f, "%zu ? %lu\n", count, (unsigned long)pc);
}

__attribute__((destructor)) static void pcprof_stop(void) {
  set_timer(0);
  size_t n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
  char exe[4096] = "?";
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len > 0) exe[len] = '\0';
  char path[64];
  snprintf(path, sizeof path, "pcprof.%ld.txt", (long)getpid());
  FILE *f = fopen(path, "w");
  if (!f) return;
  fprintf(f, "# pcprof: %zu samples, one asked per %d us of CPU time (%zu dropped)\n", n,
          INTERVAL_US, n_samples - n);
  qsort(samples, n, sizeof samples[0], by_pc);
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && samples[j] == samples[i]) j++;
    write_pc(f, exe, j - i, samples[i]);
    i = j;
  }
  fclose(f);
}
