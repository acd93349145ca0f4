// ptserverd wire protocol.
//
// ptserverd serves one minidb database to many concurrent clients over a
// small length-prefixed binary protocol (TCP or Unix socket). Every message
// is one frame:
//
//     u32 payload_length  (little-endian, excludes this 5-byte header)
//     u8  opcode
//     payload_length bytes of payload
//
// Integers are little-endian; strings are u32 length + raw bytes; values
// are a one-byte tag (0 NULL, 1 INTEGER, 2 REAL, 3 TEXT) followed by the
// representation. Frames larger than kMaxFrameBytes are rejected with an
// ERROR frame and the connection is closed (an oversized header cannot be
// resynchronized).
//
// A session is strictly request/response: the client sends one frame and
// reads one frame back. The conversation mirrors the dbal surface (protocol
// version 2):
//
//   HELLO   {u32 version}                 -> HELLO_OK {u32 version, str server}
//   PREPARE {str sql}                     -> STMT_OK  {u32 stmt_id, u32 params,
//                                                      u8 kind}
//   EXECUTE {u32 stmt_id, u32 max_rows,   -> RESULT_OK {i64 affected, i64 last_id}
//            u32 n, value...}                (DML/DDL), or
//                                            CURSOR_OK {u32 cursor_id, u32 ncols,
//                                                       str..., batch}
//                                            (SELECT/EXPLAIN)
//   FETCH   {u32 cursor_id, u32 max_rows} -> ROWS {batch}
//   CLOSE_STMT   {u32 stmt_id}            -> OK {}
//   CLOSE_CURSOR {u32 cursor_id}          -> OK {}
//   SET_OPTION {u8 option, i64 value}     -> OK {}   (session-scoped; option
//                                            = minidb/sql/options.h row + 1)
//   STAT    {}                            -> STAT_OK {u64 size_bytes,
//                                                     u32 sessions, u64 frames,
//                                                     u64 uptime_ms,
//                                                     u32 open_cursors,
//                                                     u64 db_file_bytes,
//                                                     u64 reserved,
//                                                     u64 busy_rejections,
//                                                     u64 wal_bytes}
//   PING    {}                            -> PONG {}
//   METRICS {}                            -> METRICS_OK {str text}
//                                            (Prometheus exposition format)
//   DIFF    {str exec_a, str exec_b,      -> DIFF_OK {u32 cursor_id, u32 ncols,
//            u32 top_k,                      str..., u64 results_a, u64 results_b,
//            value ratio_threshold,          u64 aligned, u64 only_a, u64 only_b,
//            value abs_threshold}            u64 divergent, u64 zero_baseline,
//                                            u64 diff_us, batch}
//                                            (server-side comparison diagnosis)
//   SHUTDOWN {}                           -> OK {}, then the server drains
//
// where batch = {u8 done, u32 nrows, (u32 ncols, value...)...}.
//
// EXECUTE carries the statement's parameters (n must equal its placeholder
// count; every EXECUTE binds afresh) and a row budget, so one round trip
// runs a prepared statement and returns its first batch of rows. When that
// batch holds the whole result (done = 1) the server has already closed the
// cursor, released its gate hold and snapshot, and the cursor id must not
// be fetched or closed. Otherwise the rest streams through FETCH under the
// returned cursor id; DIFF_OK works the same way for the ranked rows. A
// max_rows of 0 asks for the server's default batch; larger values are
// clamped to its maximum.
//
// STAT_OK grows append-only: old clients read the leading fields and stop,
// new clients treat a short payload as "server predates the field". Its
// layout is positional, so a retired field keeps its slot: `reserved` once
// carried the rollback-journal size, is always written as 0, and is
// skipped by clients.
//
// Any failure produces ERROR {u16 code, str message} and never kills the
// daemon; only protocol-level damage (truncated/oversized frames) closes
// the connection. Row batching bounds server-side materialization: a batch
// holds at most max_rows rows and stops early past a byte budget, so large
// scans stream through the cursor pipeline (DESIGN.md §5.3) in bounded
// memory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "minidb/value.h"
#include "util/error.h"

namespace perftrack::server {

inline constexpr std::uint32_t kProtocolVersion = 2;
/// Hard ceiling on one frame's payload. Generous for row batches, small
/// enough that a garbage length field cannot make the server allocate GBs.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;
inline constexpr std::size_t kFrameHeaderBytes = 5;

enum class Op : std::uint8_t {
  // client -> server
  Hello = 1,
  Prepare = 2,
  Execute = 4,
  Fetch = 5,
  CloseStmt = 6,
  CloseCursor = 7,
  SetOption = 8,
  Stat = 9,
  Ping = 10,
  Shutdown = 11,
  Metrics = 12,
  Diff = 13,

  // server -> client
  HelloOk = 64,
  StmtOk = 65,
  ResultOk = 67,
  CursorOk = 68,
  Rows = 69,
  Ok = 70,
  StatOk = 71,
  Pong = 72,
  MetricsOk = 73,
  DiffOk = 74,
  Error = 127,
};

enum class ErrCode : std::uint16_t {
  Protocol = 1,      // malformed payload, bad handshake
  UnknownOpcode = 2,
  TooBig = 3,        // frame exceeds kMaxFrameBytes
  Sql = 4,           // minidb SqlError (parse/plan/bind mistakes)
  Storage = 5,       // minidb StorageError (I/O, integrity)
  Busy = 6,          // lock acquisition timed out / server at max connections
  BadState = 7,      // unknown stmt/cursor id, FETCH after CLOSE, txn over wire
  Shutdown = 8,      // server is draining
  Internal = 9,
};

/// One decoded frame.
struct Frame {
  Op op = Op::Error;
  std::vector<std::uint8_t> payload;
};

/// Raised by the codec on malformed payloads (truncated string, bad value
/// tag). The server turns it into an ERROR frame; the client surfaces it.
class WireError : public util::PTError {
 public:
  explicit WireError(std::string message) : util::PTError(std::move(message)) {}
};

/// Append-only payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s);
  void value(const minidb::Value& v);
  void row(const minidb::Row& r);

  /// Overwrites a u8/u32 written earlier at byte offset `pos` (a count or
  /// flag known only after the fields that follow it).
  void patchU8(std::size_t pos, std::uint8_t v) { out_.at(pos) = v; }
  void patchU32(std::size_t pos, std::uint32_t v);

  std::size_t size() const { return out_.size(); }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  const std::vector<std::uint8_t>& bytes() const { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

/// Sequential payload reader; throws WireError past the end.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  minidb::Value value();
  minidb::Row row();

  bool atEnd() const { return pos_ == size_; }
  /// Throws WireError unless the whole payload was consumed (catches
  /// requests with trailing garbage).
  void expectEnd(const char* what) const;

 private:
  const std::uint8_t* need(std::size_t n, const char* what);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Convenience constructors for the frames both sides build.
Frame makeFrame(Op op, WireWriter&& writer);
Frame makeError(ErrCode code, std::string_view message);
/// Decodes an ERROR frame payload.
std::pair<ErrCode, std::string> readError(const Frame& frame);

std::string_view opName(Op op);
std::string_view errCodeName(ErrCode code);

}  // namespace perftrack::server
