// Wire protocol of the coordinator/worker split.
//
// Line-oriented text frames over any byte channel (subprocess pipes, an
// in-process queue pair): one message per line, numbers in the dse/codec
// scalar encoding (doubles as C99 hexfloats, the checkpoint format's
// encoding too), so a value that crossed the wire is bit-identical to one
// computed in-process — the foundation of the distributed layer's
// decision-identity guarantee.
//
// Every frame carries an FNV-1a 64 checksum trailer (" ~<16 hex>"):
// a worker crash can truncate a line mid-write and chaos testing flips
// bytes on purpose, and a corrupted RESULT that still parsed would
// silently fork the optimizer's decision sequence. decode_frame() turns
// both failure classes into typed dse::PayloadError faults
// (kTruncatedPayload: no checksum trailer — the line was cut off;
// kCorruptPayload: trailer present but mismatched or unparseable).
//
// Messages (payload part, before the checksum trailer):
//   HELLO <7 retry fields>        coordinator -> worker, once, first line
//   READY <protocol version>      worker -> coordinator handshake reply
//   TASK <id> <dim> <c0> ... <c{dim-1}>
//   OUT <id> <fault> <attempts> <faulted> <timeouts> <value> [message...]
//   PING <nonce> / PONG <nonce>
//   QUIT                          coordinator -> worker, drain and exit
//   ERR <detail...>               worker -> coordinator: it received a
//                                 frame it could not honour (poisoned
//                                 stream); the coordinator recycles it
#pragma once

#include <cstdint>
#include <string>

#include "dse/config.hpp"
#include "util/retry.hpp"

namespace ace::dist {

constexpr int kProtocolVersion = 1;

/// FNV-1a 64-bit over the payload bytes — tiny, stateless, and plenty to
/// reject random corruption (the threat model is crashes and bit rot, not
/// an adversary).
std::uint64_t fnv1a64(const std::string& payload);

/// Append the checksum trailer: "<payload> ~<16-hex-digit fnv64>".
std::string encode_frame(const std::string& payload);

/// Validate and strip the trailer. Throws dse::PayloadError with
/// kTruncatedPayload when no trailer is present (line cut off mid-write)
/// and kCorruptPayload when the checksum does not match.
std::string decode_frame(const std::string& line);

enum class MsgType : unsigned char {
  kHello = 0,
  kReady,
  kTask,
  kOutcome,
  kPing,
  kPong,
  kQuit,
  kErr,
};

/// One parsed wire message; which fields are meaningful depends on `type`.
struct WireMessage {
  MsgType type = MsgType::kErr;
  std::uint64_t id = 0;         ///< Task id (kTask/kOutcome), nonce (ping).
  dse::Config config;           ///< kTask.
  util::RetryOptions retry;     ///< kHello.
  util::GuardedCall call;       ///< kOutcome (value/fault/attempt counters).
  std::string text;             ///< kErr detail.
};

std::string encode_hello(const util::RetryOptions& retry);
std::string encode_ready();
std::string encode_task(std::uint64_t id, const dse::Config& config);
std::string encode_outcome(std::uint64_t id, const util::GuardedCall& call);
std::string encode_ping(std::uint64_t nonce);
std::string encode_pong(std::uint64_t nonce);
std::string encode_quit();
std::string encode_err(const std::string& detail);

/// Parse a decoded payload. Throws dse::PayloadError(kCorruptPayload) on
/// an unknown verb, missing fields, or malformed numbers.
WireMessage parse_message(const std::string& payload);

}  // namespace ace::dist
