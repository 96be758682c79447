// Outside-in instruments for the traced run: the span log, the timing sink
// wrapper, and the timestamping client stream buffer.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "perfbench/src/bench.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_span.h"

namespace perfbench {
namespace {

thread_local int64_t tl_open_span = -1;

void WriteJsonString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\';
    }
    out << c;
  }
  out << '"';
}

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

int64_t SpanLog::Begin(const char* name, uint64_t id) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = tl_open_span;
  span.tid = cloudgen::obs::ThreadId();
  span.start_us = cloudgen::obs::NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  tl_open_span = static_cast<int64_t>(spans_.size()) - 1;
  return tl_open_span;
}

void SpanLog::End(int64_t index) {
  const uint64_t now = cloudgen::obs::NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_us = now;
  tl_open_span = span.parent;
}

int64_t SpanLog::Add(const char* name, uint64_t id, int64_t parent, double start_sec,
                     double end_sec) {
  if (!enabled_) {
    return -1;
  }
  // NowSec() and obs::NowMicros() read the same steady clock from different
  // origins.
  static const double origin_us =
      NowSec() * 1e6 - static_cast<double>(cloudgen::obs::NowMicros());
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.tid = cloudgen::obs::ThreadId();
  span.start_us = static_cast<uint64_t>(std::max(0.0, start_sec * 1e6 - origin_us));
  span.end_us = static_cast<uint64_t>(std::max(0.0, end_sec * 1e6 - origin_us));
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Span> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto event = [&](const std::string& name, const char* cat, uint64_t ts, uint64_t dur,
                   uint32_t tid, const std::string& args) {
    out << (first ? "\n" : ",\n") << "{\"name\":";
    WriteJsonString(out, name);
    out << ",\"cat\":\"" << cat << "\",\"ph\":\"X\",\"ts\":" << ts << ",\"dur\":" << dur
        << ",\"pid\":1,\"tid\":" << tid << ",\"args\":{" << args << "}}";
    first = false;
  };
  const std::vector<Span> spans = Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    event(s.name, "bench", s.start_us, s.end_us - s.start_us, s.tid,
          "\"span\":" + std::to_string(i) + ",\"parent\":" + std::to_string(s.parent) +
              ",\"id\":" + std::to_string(s.id));
  }
  for (const cloudgen::obs::SpanEvent& e : cloudgen::obs::TraceCollector::Global().Events()) {
    event(e.name, "program", e.ts_us, e.dur_us, e.tid, "");
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<std::string> SpanLog::SelfTimeTable() const {
  const std::vector<Span> spans = Spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_us - s.start_us);
    }
  }
  struct Row {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double dur = static_cast<double>(spans[i].end_us - spans[i].start_us);
    Row& row = rows[spans[i].name];
    row.count += 1;
    row.total_ms += dur / 1e3;
    row.self_ms += std::max(0.0, dur - child_us[i]) / 1e3;
  }
  std::vector<std::string> lines;
  lines.push_back("span                      count    total_ms     self_ms");
  for (const auto& [name, row] : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %6zu %11.2f %11.2f", name.c_str(), row.count,
                  row.total_ms, row.self_ms);
    lines.push_back(line);
  }
  return lines;
}

cloudgen::Status TimedSink::BeginTrace(size_t trace_index) {
  if (!detailed_) {
    return inner_->BeginTrace(trace_index);
  }
  const double t0 = NowSec();
  cloudgen::Status status = inner_->BeginTrace(trace_index);
  append_sec += NowSec() - t0;
  return status;
}

cloudgen::Status TimedSink::Append(const cloudgen::Job& job) {
  if (!detailed_) {
    return inner_->Append(job);
  }
  const double t0 = NowSec();
  cloudgen::Status status = inner_->Append(job);
  append_sec += NowSec() - t0;
  return status;
}

cloudgen::Status TimedSink::EndTrace() {
  if (!detailed_) {
    return inner_->EndTrace();
  }
  const double t0 = NowSec();
  cloudgen::Status status = inner_->EndTrace();
  append_sec += NowSec() - t0;
  return status;
}

cloudgen::Status TimedSink::CommitPoint(bool force, bool* sealed) {
  bool did_seal = false;
  const double t0 = detailed_ ? NowSec() : 0.0;
  cloudgen::Status status = inner_->CommitPoint(force, &did_seal);
  if (did_seal || detailed_) {
    const double t1 = NowSec();
    if (did_seal && first_seal_sec == 0.0) {
      first_seal_sec = t1;
    }
    if (detailed_) {
      commit_sec += t1 - t0;
      if (did_seal) {
        SpanLog::Get().Add("trace.seal", op_id_, parent_span, t0, t1);
      }
    }
  }
  if (sealed != nullptr) {
    *sealed = did_seal;
  }
  return status;
}

cloudgen::Status TimedSink::ResumeAt(uint64_t segments_sealed) {
  return inner_->ResumeAt(segments_sealed);
}

cloudgen::Status TimedSink::Finish() {
  const double t0 = NowSec();
  cloudgen::Status status = inner_->Finish();
  const double t1 = NowSec();
  if (first_seal_sec == 0.0) {
    first_seal_sec = t1;
  }
  if (detailed_) {
    commit_sec += t1 - t0;
    SpanLog::Get().Add("trace.finish", op_id_, parent_span, t0, t1);
  }
  return status;
}

std::streamsize StampBuf::xsputn(const char* s, std::streamsize n) {
  const double now = NowSec();
  if (bytes == 0) {
    first_sec = now;
  }
  last_sec = now;
  bytes += static_cast<uint64_t>(n);
  if (capture_) {
    captured.append(s, static_cast<size_t>(n));
  }
  return n;
}

StampBuf::int_type StampBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  const char c = traits_type::to_char_type(ch);
  xsputn(&c, 1);
  return ch;
}

}  // namespace perfbench
