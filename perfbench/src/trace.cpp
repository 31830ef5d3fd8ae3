#include "trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench::trace {

namespace {

bool g_enabled = false;
std::vector<Span> g_spans;
std::vector<std::string> g_names;
std::unordered_map<const char*, std::uint32_t> g_name_ids;
std::vector<std::uint32_t> g_stack;  // open scoped spans, innermost last

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t name_id(const char* name) {
  const auto it = g_name_ids.find(name);
  if (it != g_name_ids.end()) return it->second;
  // Literals with equal text may have distinct addresses; fold them.
  for (std::uint32_t i = 0; i < g_names.size(); ++i)
    if (g_names[i] == name) return g_name_ids[name] = i;
  g_names.emplace_back(name);
  return g_name_ids[name] = static_cast<std::uint32_t>(g_names.size() - 1);
}

}  // namespace

bool enabled() { return g_enabled; }

void set_enabled(bool on) {
  g_enabled = on;
  if (on && g_spans.capacity() == 0) g_spans.reserve(1 << 20);
}

std::uint32_t begin(const char* name, std::uint64_t request,
                    std::uint32_t parent) {
  if (!g_enabled) return 0;
  Span span;
  span.name = name_id(name);
  span.request = request;
  if (parent == kRoot)
    span.parent = 0;
  else if (parent == 0)
    span.parent = g_stack.empty() ? 0 : g_stack.back();
  else
    span.parent = parent;
  span.start_ns = now_ns();
  g_spans.push_back(span);
  return static_cast<std::uint32_t>(g_spans.size());
}

void end(std::uint32_t id) {
  if (id == 0 || id > g_spans.size()) return;
  g_spans[id - 1].end_ns = now_ns();
}

Scoped::Scoped(const char* name, std::uint64_t request)
    : id_(begin(name, request)) {
  if (id_ != 0) g_stack.push_back(id_);
}

Scoped::~Scoped() {
  if (id_ == 0) return;
  end(id_);
  if (!g_stack.empty() && g_stack.back() == id_) g_stack.pop_back();
}

std::map<std::string, Aggregate> aggregate() {
  std::vector<double> child_us(g_spans.size(), 0.0);
  for (const Span& s : g_spans)
    if (s.parent != 0 && s.end_ns != 0)
      child_us[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  std::map<std::string, Aggregate> out;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    if (s.end_ns == 0) continue;
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    Aggregate& a = out[g_names[s.name]];
    ++a.count;
    a.total_us += us;
    a.self_us += us - child_us[i];
  }
  return out;
}

std::vector<double> durations_us(const std::string& name) {
  std::vector<double> out;
  std::uint32_t id = 0;
  while (id < g_names.size() && g_names[id] != name) ++id;
  for (const Span& s : g_spans)
    if (s.end_ns != 0 && s.name == id)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

std::size_t span_count() { return g_spans.size(); }

bool write_jsonl(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i + 1, g_names[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
