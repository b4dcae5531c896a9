// reference.hpp -- the benchmark's fixed yardstick of host speed.
//
// On a shared host the same code runs slower for a while and then faster
// again.  cpu_ms_per_req counts the program's CPU time in units of a fixed
// reference kernel measured at (nearly) the same moment, so a slowdown that
// hits both cancels.  The kernel lives in its own library target, built
// without the ptask library's options, so a change to the library or its
// build cannot move the yardstick.
#pragma once

namespace perfbench {

/// CPU milliseconds one round of the reference kernel (fill 4096 doubles
/// from a fixed xorshift stream, then std::sort them) takes on the 4-core
/// x86-64 VM the benchmark's bounds were set on.  Scaled CPU times are
/// `cpu_ms * kReferenceRoundMs / (measured CPU ms per round)`.
inline constexpr double kReferenceRoundMs = 0.3;

/// Runs `rounds` rounds of the reference kernel and returns their process
/// CPU milliseconds.  Throws std::logic_error if a sort leaves its buffer
/// unsorted.
double reference_cpu_ms(int rounds);

/// The reference kernel sampled while this process works.
struct Samples {
  double cpu_ms = 0.0;  ///< CPU time spent in the kernel
  int rounds = 0;       ///< rounds it ran
  double ms_per_round() const { return cpu_ms / rounds; }
};

/// Arms a timer on this process's CPU time: every 20 ms of it, a signal
/// handler runs four rounds of the kernel, so the samples fall through the
/// work that follows.  The process must be single-threaded and must not use
/// SIGPROF or ITIMER_PROF itself.
void start_sampling();

/// Disarms the timer and returns the samples since start_sampling(); runs
/// four rounds itself if the timer never fired.  The caller subtracts
/// `cpu_ms` from the CPU time it measured over the same span.
Samples stop_sampling();

}  // namespace perfbench
