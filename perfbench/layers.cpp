// layers.cpp - reduces a run to its reported metrics: the common
// end-to-end set from the untraced rounds, and the per-layer set from the
// traced rounds' spans and counters.
#include <cstdio>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

void add_end_to_end(Report& report, const Samples& samples, const FigureNames& names) {
  const Percentile p50 = percentile(samples.latency_ms, 50);
  const Percentile high = tail(samples.latency_ms, kTailPct);
  const double rate = median(samples.ops_per_s);
  const double cpu = median(samples.cpu_per_op_ms);
  report.add(report.end_to_end, "setup_s", median(samples.setup_s), "s");
  report.add(report.end_to_end, "latency_p50_ms", p50.value, "ms");
  report.add(report.end_to_end, "latency_tail_ms", high.value, "ms");
  report.add(report.end_to_end, "ops_per_s", rate, "1/s");
  report.add(report.end_to_end, "cpu_per_op_ms", cpu, "ms");
  report.add(report.end_to_end, "peak_rss_mb", samples.rss_mb, "MB");
  const double scale = std::string(names.time_unit) == "us" ? 1e3 : 1;
  report.add(report.detail, names.p50, p50.value * scale, names.time_unit);
  report.add(report.detail, names.tail, high.value * scale, names.time_unit);
  report.add(report.detail, names.rate, rate, "1/s");
  report.add(report.detail, names.cpu, cpu * scale, names.time_unit);
  report.add(report.detail, "latency_n", static_cast<double>(p50.n), "count");
  report.add(report.detail, "latency_tail_pct", high.pct, "pct");
  report.add(report.detail, "latency_tail_beyond", static_cast<double>(high.beyond), "count");
  for (const char* pct : {"90", "95", "99", "99.9"}) {
    report.add(report.detail, std::string("latency_p") + pct + "_ms",
               percentile(samples.latency_ms, std::stod(pct)).value, "ms");
  }
  report.check(!samples.ops_per_s.empty() && high.beyond >= 10,
               "too few samples for a tail (" + std::to_string(high.beyond) + " beyond p" +
                   std::to_string(high.pct) + ")");
}

namespace {

/// Times re-encoding and re-decoding the run's sampled messages, and checks
/// that every one survives the round trip unchanged.
void codec_timings(Report& report, double* encode_ns, double* decode_ns) {
  auto captured = Tracer::instance().take_captured();
  *encode_ns = 0;
  *decode_ns = 0;
  if (captured.empty()) return;
  constexpr int kPasses = 50;
  std::vector<std::vector<std::uint8_t>> frames(captured.size());
  Nanos encode = 0;
  Nanos decode = 0;
  bool intact = true;
  for (int pass = 0; pass < kPasses; ++pass) {
    Nanos t0 = now_ns();
    for (std::size_t i = 0; i < captured.size(); ++i) {
      captured[i].first.encode_into(frames[i], captured[i].second);
    }
    Nanos t1 = now_ns();
    for (std::size_t i = 0; i < captured.size(); ++i) {
      auto decoded = tdp::net::Message::decode(frames[i].data(), frames[i].size());
      if (pass == 0) {
        intact = intact && decoded.is_ok() && decoded.value() == captured[i].first &&
                 decoded.value().seq() == captured[i].first.seq();
      }
    }
    Nanos t2 = now_ns();
    encode += t1 - t0;
    decode += t2 - t1;
  }
  report.check(intact, "a sampled message did not survive encode/decode unchanged");
  const double n = static_cast<double>(captured.size()) * kPasses;
  *encode_ns = static_cast<double>(encode) / n;
  *decode_ns = static_cast<double>(decode) / n;
}

double per(double value, double base) { return base > 0 ? value / base : 0; }

}  // namespace

void add_layers(Report& report, const TracedTotals& totals, const RunOptions& options) {
  Tracer& tracer = Tracer::instance();
  const LayerTimes times = reduce_spans(tracer.spans());
  const Counters& c = tracer.counters();
  const double ops = static_cast<double>(totals.ops);
  const double jobs_monitored = static_cast<double>(totals.monitored_jobs);
  auto mean_us = [&](const char* name) {
    const auto named = times.named(name);
    return per(named.total_ns, static_cast<double>(named.count)) / 1e3;
  };
  auto self_us_per_op = [&](const char* layer) {
    return per(times.layer_self_ns(layer), ops) / 1e3;
  };
  auto add = [&](const char* name, double value, const char* unit) {
    report.add(report.layers, name, value, unit);
  };

  report.check(c.illegal.load() == 0, "the backend reported " +
                                          std::to_string(c.illegal.load()) +
                                          " illegal process-state transitions");
  if (tracer.dropped() > 0) {
    std::printf("%s trace buffer full: %llu spans dropped\n", options.workload.c_str(),
                static_cast<unsigned long long>(tracer.dropped()));
  }

  // condor
  const auto rtc = times.named("condor.rtc");
  add("condor.submit_us", mean_us("condor.submit"), "us");
  add("condor.negotiate_us", mean_us("condor.negotiate"), "us");
  add("condor.pump_us", mean_us("condor.pump"), "us");
  add("condor.turns_per_job", per(totals.turns, ops), "count");
  add("condor.negotiate_growth", median(totals.negotiate_growth), "ratio");
  add("condor.rtc_wait_ms_per_job", per(rtc.self_ns - rtc.self_cpu_ns, ops) / 1e6, "ms");
  add("condor.self_us_per_op", self_us_per_op("condor"), "us");
  // classads
  add("classads.evals_per_job", per(totals.evaluations, ops), "count");
  // proc
  add("proc.create_us", mean_us("proc.create"), "us");
  add("proc.signal_us", mean_us("proc.signal"), "us");
  add("proc.wait_terminal_ms_per_job",
      per(times.named("proc.wait_terminal").total_ns, ops) / 1e6, "ms");
  add("proc.poll_events_per_job", per(static_cast<double>(c.polls.load()), ops), "count");
  add("proc.events_per_job", per(static_cast<double>(c.events.load()), ops), "count");
  add("proc.self_us_per_op", self_us_per_op("proc"), "us");
  // core
  add("core.service_events_us", per(totals.service_busy_ns, totals.service_busy_calls) / 1e3,
      "us");
  add("core.tick_wake_ratio", per(totals.timed_out_with_work, totals.wakeups), "ratio");
  add("core.rm_cpu_per_op_us", per(totals.rm_cpu_ns, ops) / 1e3, "us");
  add("core.self_us_per_op", self_us_per_op("core"), "us");
  // attrspace
  add("attrspace.reply_us", mean_us("attrspace.reply"), "us");
  add("attrspace.notify_us", mean_us("attrspace.notify"), "us");
  add("attrspace.self_us_per_op", self_us_per_op("attrspace"), "us");
  // net
  double encode_ns = 0;
  double decode_ns = 0;
  codec_timings(report, &encode_ns, &decode_ns);
  const double msgs = static_cast<double>(c.msgs.load());
  add("net.msgs_per_op", per(msgs, ops), "count");
  add("net.bytes_per_msg", per(static_cast<double>(c.bytes.load()), msgs), "B");
  add("net.connects_per_job", per(static_cast<double>(c.connects.load()), ops), "count");
  add("net.connect_us", mean_us("net.connect"), "us");
  add("net.send_us", mean_us("net.send"), "us");
  add("net.encode_ns", encode_ns, "ns");
  add("net.decode_ns", decode_ns, "ns");
  add("net.self_us_per_op", self_us_per_op("net"), "us");
  // paradyn
  add("paradyn.launch_us", mean_us("paradyn.launch"), "us");
  add("paradyn.reports_per_job", per(totals.reports, jobs_monitored), "count");
  add("paradyn.monitor_gap_ms", totals.monitor_gap_ms, "ms");
  add("paradyn.self_us_per_op", self_us_per_op("paradyn"), "us");
  // trace
  const double untraced = median(totals.untraced_latency_ms);
  const double traced = median(totals.traced_latency_ms);
  add("trace.overhead_pct", untraced > 0 ? (traced - untraced) / untraced * 100 : 0, "pct");
  add("trace.unattributed_ms_per_job", per(times.unattributed_ns, static_cast<double>(times.roots)) / 1e6,
      "ms");

  if (!options.spans_path.empty() && !tracer.write(options.spans_path)) {
    std::printf("%s could not write spans to %s\n", options.workload.c_str(),
                options.spans_path.c_str());
  }
}

}  // namespace perfbench
