// Schedule trace serialization.
//
// Text format, one packet per line, so recorded schedules can be saved,
// diffed, and replayed across runs or shipped to other tools:
//
//   ups-trace v1
//   <id> <flow> <seq> <size> <src> <dst> <i(p)> <o(p)> <qdelay>
//       <flowsize> <npath> <hop0> ... <ndeparts> <d0> ...
#pragma once

#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "net/trace.h"
#include "net/trace_binary.h"  // trace_access, the sniffed v3 cursor

namespace ups::net {

void write_trace(std::ostream& os, const trace& t);
[[nodiscard]] trace read_trace(std::istream& is);

// Streaming v1 emission: header (magic + declared count) then one record
// per call. write_trace() is the batch wrapper; the pieces are exposed so a
// binary -> text converter can stream a trace it never materializes (the
// caller knows the count upfront from the binary header).
void write_trace_header(std::ostream& os, std::size_t record_count);
void write_trace_record(std::ostream& os, const packet_record& r);

void save_trace(const std::string& path, const trace& t);
[[nodiscard]] trace load_trace(const std::string& path);

// Streaming reader: parses one record per next() call into storage reused
// across calls, so walking a trace file needs O(1) memory regardless of its
// length. Yields records in file order; pair with a file written from a
// sort_by_ingress()ed trace when the consumer (the streaming replay engine)
// requires ingress-time order. A declared header count that disagrees with
// the records actually present — too few (truncation) or too many
// (trailing records) — throws trace_format_error.
class trace_stream_reader final : public trace_cursor {
 public:
  // Reads and validates the header; `is` must outlive the reader.
  explicit trace_stream_reader(std::istream& is);
  // Convenience: opens and owns the file stream.
  explicit trace_stream_reader(const std::string& path);

  [[nodiscard]] const packet_record* next() override;
  std::size_t next_run(std::vector<const packet_record*>& out) override;
  [[nodiscard]] std::size_t size_hint() const noexcept override {
    return declared_;
  }
  // Records handed out so far.
  [[nodiscard]] std::size_t read() const noexcept { return read_; }

 private:
  void read_header();
  // Parses the next record into lookahead_ (one-record lookahead powers
  // next_run's same-instant batching); false at end of trace, after
  // verifying nothing follows the declared count.
  bool fill_lookahead();

  std::ifstream owned_;
  std::istream* is_;
  std::size_t declared_ = 0;
  std::size_t parsed_ = 0;  // records consumed from the stream
  std::size_t read_ = 0;    // records handed out
  bool has_lookahead_ = false;
  bool checked_trailing_ = false;
  packet_record lookahead_;
  packet_record rec_;                 // next()'s reused hand-out slot
  std::vector<packet_record> slots_;  // next_run()'s reused run storage
};

// Opens the right cursor for an on-disk trace by sniffing its leading
// bytes: a block-decoding trace_v3_cursor for v3 (yields ingress order), a
// trace_stream_reader for v1 text (yields file order — pair with a
// sort_by_ingress()ed file for replay). Anything else, an old v2 binary
// trace included, fails the text reader's magic check with a
// trace_format_error. `access` tunes the page-cache advice for the v3
// cursor (sequential drain vs block seeks) and is ignored for text.
[[nodiscard]] std::unique_ptr<trace_cursor> open_trace_cursor(
    const std::string& path,
    trace_access access = trace_access::sequential);

// Whether an on-disk trace (any format) carries drop records — what a
// streaming converter needs to know up front to pick the target layout
// (v3 writes a wider column set for lossy traces). O(header) for v3;
// a record walk for v1.
[[nodiscard]] bool trace_file_has_drop_records(const std::string& path);

// Same sniff for stall records (backpressured originals): v3 answers off
// the header column count, v1 walks the records.
[[nodiscard]] bool trace_file_has_stall_records(const std::string& path);

}  // namespace ups::net
