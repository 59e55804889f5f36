// attr_protocol.hpp - wire field keys and the standard attribute registry.
//
// Section 3.2: "there is a standard list of attribute names for the set of
// data commonly exchanged between the different daemons (every RT and RM
// must understand this set); different tools and resource managers can
// extend this set with their own situation specific attributes."
//
// This header is that standard list for our implementation, assembled from
// every exchange the paper describes: the application pid and executable
// (Section 3.3 example), the front-end host/ports the Paradyn front-end
// publishes (Section 4.3), the stdio forwarding addresses (Section 1,
// "Standard input and output management"), and the proxy address
// (Section 2.4).
#pragma once

namespace tdp::attr {

/// Message field keys used by the attribute-space wire protocol.
namespace field {
inline constexpr const char* kContext = "ctx";
inline constexpr const char* kAttribute = "attr";
inline constexpr const char* kValue = "value";
inline constexpr const char* kStatus = "status";
inline constexpr const char* kError = "error";
inline constexpr const char* kBlock = "block";      ///< "1" = park until put
inline constexpr const char* kPattern = "pattern";  ///< subscription pattern
inline constexpr const char* kSubId = "sub_id";
inline constexpr const char* kCount = "count";
inline constexpr const char* kKeyPrefix = "k";      ///< list reply: k0,v0,k1,v1...
inline constexpr const char* kValPrefix = "v";
/// Client-unique id on a kAttrPutBatch; the server remembers recent ids and
/// acks a replayed batch without applying it twice (retry idempotency).
inline constexpr const char* kBatchId = "bid";
/// Backpressure hint a kBusy refusal carries in its status message as
/// "retry_after_ms=<n>": how long the caller should wait (milliseconds)
/// before retrying. backoff_delay_ms adds jitter on top so a herd of
/// hinted callers desynchronizes.
inline constexpr const char* kRetryAfterMs = "retry_after_ms";
}  // namespace field

/// Attribute-name prefix under which every daemon self-publishes its
/// telemetry snapshot: tdp.telemetry.<role>.<host>.<metric>. The space
/// observes itself through the same channel it provides (Section 1's "one
/// coordination channel" claim applied to the system's own state).
inline constexpr const char* kTelemetryPrefix = "tdp.telemetry.";

/// The standard attribute names every RM and RT must understand.
namespace attrs {
/// Application process id, put by the RM after tdp_create_process(paused)
/// and fetched by the RT before tdp_attach (Figure 6, steps 1 and 3).
inline constexpr const char* kPid = "pid";
/// Path of the application executable, for the RT's symbol parsing.
inline constexpr const char* kExecutableName = "executable_name";
/// Arguments passed to the application ("-p1500 -P2000" style multi-value).
inline constexpr const char* kAppArgs = "app_args";
/// Host of the RT front-end, published by the front-end (Section 4.3).
inline constexpr const char* kFrontendHost = "frontend_host";
/// First front-end listener port (Paradyn's -p).
inline constexpr const char* kFrontendPort = "frontend_port";
/// Second front-end listener port (Paradyn's -P).
inline constexpr const char* kFrontendPort2 = "frontend_port2";
/// Address (host:port) of the RM's connection proxy, when one is needed.
inline constexpr const char* kProxyAddress = "proxy_address";
/// Where the application should connect its standard input/output.
inline constexpr const char* kStdioAddress = "stdio_address";
/// Current application state as maintained by the RM ("created", "paused",
/// "running", "stopped", "exited:<code>", "signalled:<sig>").
inline constexpr const char* kAppState = "app_state";
/// Set by the RT when its initialization is done and the RM may start the
/// application (Section 2.2 step 5).
inline constexpr const char* kRtReady = "rt_ready";
/// Working directory for the application process.
inline constexpr const char* kWorkingDir = "working_dir";
/// Job identifier assigned by the RM, for log correlation.
inline constexpr const char* kJobId = "job_id";
/// Number of processes in the job (MPI universe).
inline constexpr const char* kNumProcs = "num_procs";
}  // namespace attrs

/// The context name Parador uses when the RM manages a single RT; RMs that
/// "deal simultaneously with several RT may initialize a different space
/// for each RT" by suffixing this (Section 3.2).
inline constexpr const char* kDefaultContext = "tdp";

}  // namespace tdp::attr
