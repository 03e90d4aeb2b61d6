#include "host.h"

#include <cstdlib>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

int cpu_count() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<int>(online) : 1;
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double peak_rss_mib() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string build_context() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "g++ " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "compiler=\"" + compiler + "\" build_type=" PERFBENCH_BUILD_TYPE " flags=\"" +
         std::string(PERFBENCH_CXX_FLAGS) + "\"";
}

}  // namespace perfbench
