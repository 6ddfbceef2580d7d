// A SIGPROF sampler, loaded into any program with LD_PRELOAD:
//
//   BB_SAMPLER_OUT=PREFIX LD_PRELOAD=libbb_sampler.so PROGRAM ARGS...
//
// Every 1 ms of the process's CPU time (ITIMER_PROF) the handler stores
// the interrupted stack's return addresses (backtrace()). At exit the
// samples and the process's memory map go to PREFIX.<pid>, which
// tools/sampler/report.py symbolizes with addr2line. Without
// BB_SAMPLER_OUT the library does nothing. A process that ends in _exit
// or a signal writes no file, and one that runs longer than kMaxSamples
// ticks keeps its first kMaxSamples samples.
//
// Not for sanitizer builds: their runtimes must be the first library
// preloaded, and they intercept the signal and unwinding calls this uses.

#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr int kMaxFrames = 64;
// backtrace() in the handler starts with OnProf and the signal
// trampoline; the interrupted instruction is the third frame.
constexpr int kHandlerFrames = 2;
constexpr size_t kMaxSamples = size_t(1) << 16;  // 65 s of CPU time

struct Sample {
  int depth;
  void* frames[kMaxFrames];
};

Sample* samples = nullptr;  // kMaxSamples, untouched pages stay unmapped
std::atomic<size_t> taken{0};

void OnProf(int) {
  const size_t i = taken.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) {
    samples[i].depth = backtrace(samples[i].frames, kMaxFrames);
  }
}

void SetTimer(long usec) {
  itimerval tick{};
  tick.it_interval.tv_usec = usec;
  tick.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &tick, nullptr);
}

__attribute__((constructor)) void StartSampling() {
  if (std::getenv("BB_SAMPLER_OUT") == nullptr) return;
  samples = static_cast<Sample*>(std::calloc(kMaxSamples, sizeof(Sample)));
  if (samples == nullptr) return;
  // The first backtrace() loads the unwinder, which is not safe inside
  // a signal handler; do it here.
  void* warm[1];
  backtrace(warm, 1);
  struct sigaction action {};
  action.sa_handler = OnProf;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetTimer(1000);
}

__attribute__((destructor)) void WriteSamples() {
  if (samples == nullptr) return;
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  char path[4096];
  std::snprintf(path, sizeof(path), "%s.%d", std::getenv("BB_SAMPLER_OUT"),
                int(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::perror(path);
    return;
  }
  // "M <maps line>" per mapping, then per sample "S" and its stack in
  // hex: the interrupted instruction, then the return addresses.
  std::fprintf(out, "# bb-sampler v1, 1 ms ITIMER_PROF, %zu ticks\n",
               taken.load());
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fprintf(out, "M %s", line);
    }
    std::fclose(maps);
  }
  const size_t n = std::min(taken.load(), kMaxSamples);
  for (size_t i = 0; i < n; ++i) {
    std::fputc('S', out);
    for (int f = kHandlerFrames; f < samples[i].depth; ++f) {
      std::fprintf(out, " %p", samples[i].frames[f]);
    }
    std::fputc('\n', out);
  }
  if (std::fclose(out) != 0) std::perror(path);
}

}  // namespace
