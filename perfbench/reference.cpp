#include "reference.hpp"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace perfbench {
namespace {

constexpr std::size_t kValues = 4096;
constexpr int kSampleRounds = 4;
constexpr long kSampleIntervalUs = 20000;

/// The calling thread's CPU time.  Not the process clock: while a process
/// CPU timer is armed, Linux reads that clock from a total refreshed only
/// at scheduler ticks, far too coarse for one sample.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

/// One round of the kernel: the same 4096 values every time, so every round
/// does the same work.  Returns whether the sort left them sorted.  The
/// empty asm makes the buffer escape, so the compiler can neither drop the
/// round nor move it across the CPU clock reads.
bool one_round(double* values) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < kValues; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values[i] = static_cast<double>(x >> 11);
  }
  std::sort(values, values + kValues);
  asm volatile("" : : "r"(values) : "memory");
  return std::is_sorted(values, values + kValues);
}

// The signal handler's own buffer and tallies; nothing else writes them
// while the timer is armed.
double sample_values[kValues];
volatile double sampled_ms = 0.0;
volatile sig_atomic_t sampled_rounds = 0;
volatile sig_atomic_t sample_unsorted = 0;

/// SIGPROF handler.  It only computes on its own buffer and reads a clock,
/// so it is safe whatever the code it interrupted was doing.
void sample(int) {
  const int saved_errno = errno;
  const double t0 = thread_cpu_ms();
  bool sorted = true;
  for (int r = 0; r < kSampleRounds; ++r) sorted = one_round(sample_values) && sorted;
  sampled_ms = sampled_ms + (thread_cpu_ms() - t0);
  sampled_rounds = sampled_rounds + kSampleRounds;
  if (!sorted) sample_unsorted = 1;
  errno = saved_errno;
}

void set_timer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

double reference_cpu_ms(int rounds) {
  static double values[kValues];
  bool sorted = true;
  const double t0 = thread_cpu_ms();
  for (int r = 0; r < rounds; ++r) sorted = one_round(values) && sorted;
  const double elapsed = thread_cpu_ms() - t0;
  if (!sorted) throw std::logic_error("reference kernel left its buffer unsorted");
  return elapsed;
}

void start_sampling() {
  struct sigaction action {};
  action.sa_handler = sample;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  sampled_ms = 0.0;
  sampled_rounds = 0;
  sample_unsorted = 0;
  set_timer(kSampleIntervalUs);
}

Samples stop_sampling() {
  // A tick raised before the disarm is delivered when setitimer returns,
  // before the tallies are read; the handler stays installed, so a late one
  // cannot end the process.
  set_timer(0);
  if (sampled_rounds == 0) sample(SIGPROF);
  if (sample_unsorted != 0) {
    throw std::logic_error("reference kernel left its buffer unsorted");
  }
  return {sampled_ms, static_cast<int>(sampled_rounds)};
}

}  // namespace perfbench
