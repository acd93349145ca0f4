#include "server/protocol.h"

#include <bit>
#include <cstring>

namespace perftrack::server {

// --- WireWriter --------------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void WireWriter::patchU32(std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.at(pos + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

void WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

void WireWriter::value(const minidb::Value& v) {
  if (v.isNull()) {
    u8(0);
  } else if (v.isInt()) {
    u8(1);
    i64(v.asInt());
  } else if (v.isReal()) {
    u8(2);
    u64(std::bit_cast<std::uint64_t>(v.asReal()));
  } else {
    u8(3);
    str(v.asText());
  }
}

void WireWriter::row(const minidb::Row& r) {
  u32(static_cast<std::uint32_t>(r.size()));
  for (const minidb::Value& v : r) value(v);
}

// --- WireReader --------------------------------------------------------------

const std::uint8_t* WireReader::need(std::size_t n, const char* what) {
  if (size_ - pos_ < n) {
    throw WireError(std::string("truncated payload reading ") + what);
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t WireReader::u8() { return *need(1, "u8"); }

std::uint16_t WireReader::u16() {
  const std::uint8_t* p = need(2, "u16");
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t WireReader::u32() {
  const std::uint8_t* p = need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  const std::uint8_t* p = need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  const std::uint8_t* p = need(len, "string body");
  return std::string(reinterpret_cast<const char*>(p), len);
}

minidb::Value WireReader::value() {
  switch (u8()) {
    case 0: return minidb::Value::null();
    case 1: return minidb::Value(i64());
    case 2: return minidb::Value(std::bit_cast<double>(u64()));
    case 3: return minidb::Value(str());
    default: throw WireError("bad value tag");
  }
}

minidb::Row WireReader::row() {
  const std::uint32_t n = u32();
  if (n > size_ - pos_) {  // each value needs at least its one-byte tag
    throw WireError("row column count exceeds payload");
  }
  minidb::Row r;
  r.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) r.push_back(value());
  return r;
}

void WireReader::expectEnd(const char* what) const {
  if (pos_ != size_) {
    throw WireError(std::string("trailing bytes after ") + what + " payload");
  }
}

// --- frames ------------------------------------------------------------------

Frame makeFrame(Op op, WireWriter&& writer) {
  return Frame{op, writer.take()};
}

Frame makeError(ErrCode code, std::string_view message) {
  WireWriter w;
  w.u16(static_cast<std::uint16_t>(code));
  w.str(message);
  return makeFrame(Op::Error, std::move(w));
}

std::pair<ErrCode, std::string> readError(const Frame& frame) {
  WireReader r(frame.payload);
  const auto code = static_cast<ErrCode>(r.u16());
  std::string message = r.str();
  return {code, std::move(message)};
}

std::string_view opName(Op op) {
  switch (op) {
    case Op::Hello: return "HELLO";
    case Op::Prepare: return "PREPARE";
    case Op::Execute: return "EXECUTE";
    case Op::Fetch: return "FETCH";
    case Op::CloseStmt: return "CLOSE_STMT";
    case Op::CloseCursor: return "CLOSE_CURSOR";
    case Op::SetOption: return "SET_OPTION";
    case Op::Stat: return "STAT";
    case Op::Ping: return "PING";
    case Op::Shutdown: return "SHUTDOWN";
    case Op::Metrics: return "METRICS";
    case Op::Diff: return "DIFF";
    case Op::HelloOk: return "HELLO_OK";
    case Op::StmtOk: return "STMT_OK";
    case Op::ResultOk: return "RESULT_OK";
    case Op::CursorOk: return "CURSOR_OK";
    case Op::Rows: return "ROWS";
    case Op::Ok: return "OK";
    case Op::StatOk: return "STAT_OK";
    case Op::Pong: return "PONG";
    case Op::MetricsOk: return "METRICS_OK";
    case Op::DiffOk: return "DIFF_OK";
    case Op::Error: return "ERROR";
  }
  return "UNKNOWN";
}

std::string_view errCodeName(ErrCode code) {
  switch (code) {
    case ErrCode::Protocol: return "PROTOCOL";
    case ErrCode::UnknownOpcode: return "UNKNOWN_OPCODE";
    case ErrCode::TooBig: return "TOO_BIG";
    case ErrCode::Sql: return "SQL";
    case ErrCode::Storage: return "STORAGE";
    case ErrCode::Busy: return "BUSY";
    case ErrCode::BadState: return "BAD_STATE";
    case ErrCode::Shutdown: return "SHUTDOWN";
    case ErrCode::Internal: return "INTERNAL";
  }
  return "UNKNOWN";
}

}  // namespace perftrack::server
