#include "trace.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end - s.start);
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    const double dur = static_cast<double>(s.end - s.start);
    auto it = child_ns.find(s.id);
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - (it == child_ns.end() ? 0.0 : it->second);
  }
  return out;
}

std::string write_trace(const std::string& dir, const std::string& stem,
                        const std::vector<Span>& spans,
                        const std::string& extra) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  const std::string base = dir + "/" + stem;
  {
    std::ofstream csv(base + ".spans.csv");
    csv << "name,op,id,parent,start_ns,end_ns\n";
    for (const Span& s : spans) {
      csv << s.name << ',' << s.op << ',' << s.id << ',' << s.parent << ','
          << s.start << ',' << s.end << '\n';
    }
    if (!csv) return "";
  }
  std::ofstream js(base + ".summary.json");
  js << "{\"self_time\": {";
  bool first = true;
  for (const auto& [name, t] : self_times(spans)) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"count\": %llu, \"total_us\": %.3f, \"self_us\": %.3f, "
                  "\"mean_self_us\": %.3f",
                  static_cast<unsigned long long>(t.count), t.total_ns / 1e3,
                  t.self_ns / 1e3,
                  t.count ? t.self_ns / 1e3 / static_cast<double>(t.count) : 0);
    js << (first ? "" : ", ") << "\"" << name << "\": {" << buf << "}";
    first = false;
  }
  js << "}, " << extra << "}\n";
  return js ? base + ".summary.json" : "";
}

}  // namespace perfbench
