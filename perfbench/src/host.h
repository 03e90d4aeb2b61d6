#pragma once
// Host context recorded with every run: CPUs, load, compiler, flags.

#include <string>

namespace perfbench {

/// Online CPUs (sysconf), at least 1.
int cpu_count();

/// One-minute load average, or -1 when the host does not report one.
double load_average();

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// "compiler=... build_type=... flags=..." for the binary being run.
std::string build_context();

}  // namespace perfbench
