#include "dist/protocol.hpp"

#include <cstdio>

#include "dse/codec.hpp"
#include "dse/fault.hpp"

namespace ace::dist {

using dse::FaultCode;
using dse::PayloadError;

std::uint64_t fnv1a64(const std::string& payload) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char ch : payload) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string encode_frame(const std::string& payload) {
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), " ~%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return payload + trailer;
}

std::string decode_frame(const std::string& line) {
  // Trailer = " ~" + exactly 16 hex digits at the very end of the line.
  constexpr std::size_t kTrailer = 2 + 16;
  const std::size_t mark = line.rfind(" ~");
  if (mark == std::string::npos || line.size() - mark != kTrailer)
    throw PayloadError(FaultCode::kTruncatedPayload,
                       "wire: frame has no checksum trailer (cut off?): " +
                           line.substr(0, 80));
  std::uint64_t declared = 0;
  for (std::size_t i = mark + 2; i < line.size(); ++i) {
    const char ch = line[i];
    int digit;
    if (ch >= '0' && ch <= '9')
      digit = ch - '0';
    else if (ch >= 'a' && ch <= 'f')
      digit = 10 + (ch - 'a');
    else
      throw PayloadError(FaultCode::kCorruptPayload,
                         "wire: non-hex checksum digit");
    declared = (declared << 4) | static_cast<std::uint64_t>(digit);
  }
  std::string payload = line.substr(0, mark);
  if (fnv1a64(payload) != declared)
    throw PayloadError(FaultCode::kCorruptPayload,
                       "wire: checksum mismatch on: " + payload.substr(0, 80));
  return payload;
}

namespace {

/// "<verb> <field> ...", each field as its codec token.
template <class... Fields>
std::string message(const char* verb, const Fields&... fields) {
  std::string out = verb;
  ((out += ' ', out += dse::to_token(fields)), ...);
  return out;
}

/// Free text rides as the tail of the line; newlines would break the
/// framing, so flatten them.
std::string flatten(std::string text) {
  for (char& ch : text)
    if (ch == '\n' || ch == '\r') ch = ' ';
  return text;
}

}  // namespace

std::string encode_hello(const util::RetryOptions& retry) {
  return encode_frame(message(
      "HELLO", kProtocolVersion, retry.max_attempts, retry.base_backoff_ms,
      retry.backoff_multiplier, retry.max_backoff_ms, retry.jitter_fraction,
      retry.jitter_seed, retry.deadline_ms));
}

std::string encode_ready() {
  return encode_frame(message("READY", kProtocolVersion));
}

std::string encode_task(std::uint64_t id, const dse::Config& config) {
  std::string payload = message("TASK", id, config.size());
  for (const int coordinate : config) {
    payload += ' ';
    payload += dse::to_token(coordinate);
  }
  return encode_frame(payload);
}

std::string encode_outcome(std::uint64_t id, const util::GuardedCall& call) {
  std::string payload =
      message("OUT", id, static_cast<int>(call.fault), call.attempts,
              call.faulted_attempts, call.timeouts, call.value);
  if (!call.message.empty()) {
    payload += ' ';
    payload += flatten(call.message);
  }
  return encode_frame(payload);
}

std::string encode_ping(std::uint64_t nonce) {
  return encode_frame(message("PING", nonce));
}

std::string encode_pong(std::uint64_t nonce) {
  return encode_frame(message("PONG", nonce));
}

std::string encode_quit() { return encode_frame("QUIT"); }

std::string encode_err(const std::string& detail) {
  return encode_frame("ERR " + flatten(detail));
}

WireMessage parse_message(const std::string& payload) {
  // The frame checksum has already shown the payload complete, so running
  // out of tokens means a malformed message, not a cut-off one.
  dse::TokenReader tokens(payload, "wire", FaultCode::kCorruptPayload);
  const std::string verb(tokens.next("verb"));
  WireMessage msg;
  if (verb == "HELLO") {
    msg.type = MsgType::kHello;
    const std::uint64_t version = tokens.unsigned_integer("protocol version");
    if (version != static_cast<std::uint64_t>(kProtocolVersion))
      tokens.corrupt("protocol version mismatch: " +
                     std::to_string(version));
    msg.retry.max_attempts = tokens.unsigned_integer("max_attempts");
    msg.retry.base_backoff_ms = tokens.real("base_backoff_ms");
    msg.retry.backoff_multiplier = tokens.real("backoff_multiplier");
    msg.retry.max_backoff_ms = tokens.real("max_backoff_ms");
    msg.retry.jitter_fraction = tokens.real("jitter_fraction");
    msg.retry.jitter_seed = tokens.unsigned_integer("jitter_seed");
    msg.retry.deadline_ms = tokens.real("deadline_ms");
    tokens.done("HELLO");
  } else if (verb == "READY") {
    msg.type = MsgType::kReady;
    const std::uint64_t version = tokens.unsigned_integer("protocol version");
    if (version != static_cast<std::uint64_t>(kProtocolVersion))
      tokens.corrupt("protocol version mismatch: " +
                     std::to_string(version));
    tokens.done("READY");
  } else if (verb == "TASK") {
    msg.type = MsgType::kTask;
    msg.id = tokens.unsigned_integer("task id");
    const std::uint64_t dims = tokens.unsigned_integer("dimension count");
    if (dims > 4096) tokens.corrupt("implausible task dimension count");
    for (std::uint64_t i = 0; i < dims; ++i)
      msg.config.push_back(tokens.integer("coordinate"));
    tokens.done("TASK");
  } else if (verb == "OUT") {
    msg.type = MsgType::kOutcome;
    msg.id = tokens.unsigned_integer("task id");
    const int fault = tokens.integer("fault code");
    if (fault < 0 ||
        fault > static_cast<int>(util::CallFault::kContractViolation))
      tokens.corrupt("fault code out of range: " + std::to_string(fault));
    msg.call.fault = static_cast<util::CallFault>(fault);
    msg.call.attempts = tokens.unsigned_integer("attempts");
    msg.call.faulted_attempts = tokens.unsigned_integer("faulted_attempts");
    msg.call.timeouts = tokens.unsigned_integer("timeouts");
    msg.call.value = tokens.real("value");
    msg.call.message = tokens.rest();
  } else if (verb == "PING") {
    msg.type = MsgType::kPing;
    msg.id = tokens.unsigned_integer("nonce");
    tokens.done("PING");
  } else if (verb == "PONG") {
    msg.type = MsgType::kPong;
    msg.id = tokens.unsigned_integer("nonce");
    tokens.done("PONG");
  } else if (verb == "QUIT") {
    msg.type = MsgType::kQuit;
    tokens.done("QUIT");
  } else if (verb == "ERR") {
    msg.type = MsgType::kErr;
    msg.text = tokens.rest();
  } else {
    tokens.corrupt("unknown verb: " + verb);
  }
  return msg;
}

}  // namespace ace::dist
