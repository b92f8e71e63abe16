#include "net/trace_binary.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "core/varint.h"

namespace ups::net {

namespace {

static_assert(std::endian::native == std::endian::little,
              "binary trace I/O assumes a little-endian host; add "
              "byte-swapping load/store helpers before porting to a "
              "big-endian target");

template <typename T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));  // unaligned-safe; LE host asserted above
  return v;
}

template <typename T>
void store_le(std::uint8_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof(T));
}

// --- v3 primitives -----------------------------------------------------------

// LEB128 + zigzag come from the shared core implementation.
using core::put_varint;
using core::unzigzag;
using core::zigzag;

// Wrapping u64 difference cast to signed: round-trips every (a, b) pair
// exactly (the decoder applies the inverse wrap), while keeping the common
// small-difference case one varint byte. Avoids the signed-overflow UB a
// plain i64 subtraction would hit on extreme operands.
[[nodiscard]] constexpr std::int64_t wrap_diff(std::int64_t a,
                                               std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t wrap_add(std::int64_t base,
                                              std::int64_t delta) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(base) +
                                   static_cast<std::uint64_t>(delta));
}

[[nodiscard]] std::uint32_t narrow_u32(std::uint64_t v, const char* what) {
  if (v > UINT32_MAX) {
    throw trace_format_error(std::string("trace v3: ") + what +
                             " overflows 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

[[nodiscard]] node_id narrow_node(std::int64_t v, const char* what) {
  if (v < INT32_MIN || v > INT32_MAX) {
    throw trace_format_error(std::string("trace v3: ") + what +
                             " overflows a node id");
  }
  return static_cast<node_id>(v);
}

// One column's varint stream inside a block, decoded value by value. Reading
// past the column's end throws (truncated varint); finish() rejects a column
// holding more bytes than its values consumed.
struct column_reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  const char* name;

  [[nodiscard]] std::uint64_t next() {
    return core::get_varint_checked<trace_format_error>(p, end, "trace v3");
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return static_cast<std::size_t>(end - p);
  }
  void finish() const {
    if (p != end) {
      throw trace_format_error(std::string("trace v3: ") + name +
                               " column has leftover bytes");
    }
  }
};

// The next value of a length column (path or departs). Every element of the
// data column takes at least one byte, so a length — or a running `total` —
// beyond the data column's bytes is corrupt. Each length is checked alone
// before it is added: a 2^64 - k value would wrap the total back under the
// bound. Only a length that passes may size a vector.
[[nodiscard]] std::size_t next_length(column_reader& len, std::uint64_t& total,
                                      const column_reader& data,
                                      const char* error) {
  const std::uint64_t k = len.next();
  if (k > data.bytes() || (total += k) > data.bytes()) {
    throw trace_format_error(error);
  }
  return static_cast<std::size_t>(k);
}

// Column order (see kTraceV3ColumnNames): the numeric indices below are the
// single source of truth for both encoder and decoder.
enum v3_col : std::size_t {
  kColIngress = 0,
  kColEgress = 1,
  kColId = 2,
  kColFlow = 3,
  kColSeq = 4,
  kColSize = 5,
  kColSrc = 6,
  kColDst = 7,
  kColQdelay = 8,
  kColFlowSize = 9,
  kColPathLen = 10,
  kColPath = 11,
  kColDepartsLen = 12,
  kColDeparts = 13,
  // Both columns of a pair are empty in a block where no record was
  // dropped (stalled).
  kColDropInfo = 14,
  kColDropTime = 15,
  kColStallInfo = 16,
  kColStallTime = 17,
};

// Columns holding one value, so at least one byte, for every record: all
// but the path and departs data columns and the two optional pairs.
constexpr std::uint32_t kPerRecordColumns = 12;

struct v3_block_header {
  std::uint32_t records = 0;
  std::uint32_t bytes = 0;
  sim::time_ps min_ingress = 0;
  sim::time_ps max_ingress = 0;
  std::array<std::uint32_t, kTraceV3ColumnCount> col_bytes{};
};

// The block header at `p`, checked against `room`, the file's bytes from
// the block's start to its end: the block must fit them, its column sizes
// must fill it, and its record count must fit both records_per_block and
// its bytes. Each record spends at least one byte in every per-record
// column, so a count the bytes cannot hold is forged, and is rejected
// before it can size the record slots.
v3_block_header check_block_header(const std::uint8_t* p, std::uint64_t room,
                                   std::uint32_t records_per_block) {
  v3_block_header h;
  h.records = load_le<std::uint32_t>(p);
  h.bytes = load_le<std::uint32_t>(p + 4);
  h.min_ingress = load_le<std::int64_t>(p + 8);
  h.max_ingress = load_le<std::int64_t>(p + 16);
  if (h.bytes < kTraceV3BlockHeaderBytes) {
    throw trace_format_error("trace v3: block smaller than its header");
  }
  if (h.bytes > room) {
    throw trace_format_error("trace v3: block out of bounds");
  }
  std::uint64_t total = kTraceV3BlockHeaderBytes;
  for (std::size_t c = 0; c < kTraceV3ColumnCount; ++c) {
    h.col_bytes[c] = load_le<std::uint32_t>(p + 24 + 4 * c);
    total += h.col_bytes[c];
  }
  if (total != h.bytes) {
    throw trace_format_error(
        "trace v3: column sizes disagree with the block size");
  }
  if (h.records == 0 || h.records > records_per_block ||
      h.records > (h.bytes - kTraceV3BlockHeaderBytes) / kPerRecordColumns) {
    throw trace_format_error("trace v3: block record count out of range");
  }
  return h;
}

}  // namespace

bool is_trace_v3_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  char head[sizeof(kTraceV3Magic)] = {};
  is.read(head, sizeof(head));
  return is.gcount() == sizeof(head) &&
         std::memcmp(head, kTraceV3Magic, sizeof(head)) == 0;
}

// --- v3 writer ---------------------------------------------------------------

trace_v3_writer::trace_v3_writer(std::ostream& os,
                                 std::uint32_t records_per_block)
    : os_(&os), records_per_block_(records_per_block) {
  if (records_per_block_ == 0) {
    throw std::logic_error("trace_v3_writer: records_per_block must be > 0");
  }
  std::uint8_t header[kTraceV3HeaderBytes] = {};
  std::memcpy(header, kTraceV3Magic, sizeof(kTraceV3Magic));
  store_le<std::uint32_t>(header + 8, kTraceV3Version);
  store_le<std::uint32_t>(header + 12, kTraceV3HeaderBytes);
  // record_count / block_count at 16/24 stay zero until finish() patches.
  store_le<std::uint32_t>(header + 48, records_per_block_);
  os_->write(reinterpret_cast<const char*>(header), sizeof(header));
  if (!*os_) throw trace_format_error("trace v3: header write failed");
}

void trace_v3_writer::append(const packet_record& r) {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: append after finish");
  }
  if (r.ingress_time < prev_ingress_) {
    throw trace_format_error(
        "trace v3: records must be appended in ingress order");
  }
  if (in_block_ == 0) {
    block_base_ = r.ingress_time;
    prev_ingress_ = r.ingress_time;
    prev_id_ = 0;
    prev_flow_ = 0;
    block_drops_ = false;
    block_stalls_ = false;
  }
  put_varint(cols_[kColIngress],
             static_cast<std::uint64_t>(r.ingress_time) -
                 static_cast<std::uint64_t>(prev_ingress_));
  prev_ingress_ = r.ingress_time;
  put_varint(cols_[kColEgress],
             zigzag(wrap_diff(r.egress_time, r.ingress_time)));
  put_varint(cols_[kColId],
             zigzag(static_cast<std::int64_t>(r.id - prev_id_)));
  prev_id_ = r.id;
  put_varint(cols_[kColFlow],
             zigzag(static_cast<std::int64_t>(r.flow_id - prev_flow_)));
  prev_flow_ = r.flow_id;
  put_varint(cols_[kColSeq], r.seq_in_flow);
  put_varint(cols_[kColSize], r.size_bytes);
  put_varint(cols_[kColSrc], zigzag(r.src_host));
  put_varint(cols_[kColDst], zigzag(r.dst_host));
  put_varint(cols_[kColQdelay], zigzag(r.queueing_delay));
  put_varint(cols_[kColFlowSize], r.flow_size_bytes);
  put_varint(cols_[kColPathLen], r.path.size());
  for (const node_id n : r.path) put_varint(cols_[kColPath], zigzag(n));
  put_varint(cols_[kColDepartsLen], r.hop_departs.size());
  sim::time_ps prev_depart = r.ingress_time;
  for (const sim::time_ps d : r.hop_departs) {
    put_varint(cols_[kColDeparts], zigzag(wrap_diff(d, prev_depart)));
    prev_depart = d;
  }
  // A pair's first entry in the block fills in the earlier records' zeros
  // (a varint 0 is one zero byte).
  if (r.dropped() && !block_drops_) {
    block_drops_ = true;
    cols_[kColDropInfo].assign(in_block_, 0);
    cols_[kColDropTime].assign(in_block_, 0);
  }
  if (block_drops_) {
    const std::uint64_t info =
        r.dropped() ? ((static_cast<std::uint64_t>(r.drop_hop) + 1) << 2) |
                          static_cast<std::uint64_t>(r.dropped_kind)
                    : 0;
    put_varint(cols_[kColDropInfo], info);
    put_varint(cols_[kColDropTime],
               r.dropped() ? zigzag(wrap_diff(r.drop_time, r.ingress_time))
                           : 0);
  }
  if (r.stalled() && !block_stalls_) {
    block_stalls_ = true;
    cols_[kColStallInfo].assign(in_block_, 0);
    cols_[kColStallTime].assign(in_block_, 0);
  }
  if (block_stalls_) {
    const std::uint64_t sinfo =
        r.stalled() ? (static_cast<std::uint64_t>(r.stall_count) << 16) |
                          (static_cast<std::uint64_t>(r.stall_hop) + 1)
                    : 0;
    put_varint(cols_[kColStallInfo], sinfo);
    put_varint(cols_[kColStallTime],
               r.stalled() ? static_cast<std::uint64_t>(r.stall_time) : 0);
  }
  ++in_block_;
  ++written_;
  if (in_block_ == records_per_block_) flush_block();
}

void trace_v3_writer::flush_block() {
  if (in_block_ == 0) return;
  std::uint64_t bytes = kTraceV3BlockHeaderBytes;
  for (const auto& c : cols_) bytes += c.size();
  if (bytes > UINT32_MAX) {
    throw trace_format_error("trace v3: block exceeds 4 GiB");
  }
  block_buf_.clear();
  block_buf_.resize(kTraceV3BlockHeaderBytes);
  std::uint8_t* h = block_buf_.data();
  store_le<std::uint32_t>(h, in_block_);
  store_le<std::uint32_t>(h + 4, static_cast<std::uint32_t>(bytes));
  store_le<std::int64_t>(h + 8, block_base_);
  store_le<std::int64_t>(h + 16, prev_ingress_);  // block max ingress
  for (std::size_t c = 0; c < kTraceV3ColumnCount; ++c) {
    store_le<std::uint32_t>(h + 24 + 4 * c,
                            static_cast<std::uint32_t>(cols_[c].size()));
  }
  for (auto& c : cols_) {
    block_buf_.insert(block_buf_.end(), c.begin(), c.end());
    c.clear();
  }
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  if (!*os_) throw trace_format_error("trace v3: block write failed");
  ++blocks_;
  in_block_ = 0;
}

void trace_v3_writer::finish() {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: finish called twice");
  }
  flush_block();
  finished_ = true;
  std::uint8_t counts[16];
  store_le<std::uint64_t>(counts, written_);
  store_le<std::uint64_t>(counts + 8, blocks_);
  os_->seekp(16);
  os_->write(reinterpret_cast<const char*>(counts), sizeof(counts));
  os_->seekp(0, std::ios::end);
  os_->flush();
  if (!*os_) throw trace_format_error("trace v3: header write failed");
}

void write_trace_v3(std::ostream& os, const trace& t) {
  // Emit in the (ingress, position) order replay streams an in-memory trace
  // in, so any input order produces the same file and the same replay as
  // the v1 path.
  trace_ingress_cursor cur = t.ingress_cursor();
  trace_v3_writer w(os);
  while (const packet_record* r = cur.next()) w.append(*r);
  w.finish();
}

void save_trace_v3(const std::string& path, const trace& t) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  write_trace_v3(os, t);
}

// --- v3 cursor ---------------------------------------------------------------

trace_v3_cursor::trace_v3_cursor(const std::string& path)
    : owned_(path, std::ios::binary), is_(&owned_) {
  if (!owned_) throw std::runtime_error("trace: cannot open " + path);
  validate_blocks();
}

trace_v3_cursor::trace_v3_cursor(std::istream& is) : is_(&is) {
  validate_blocks();
}

void trace_v3_cursor::read_at(std::uint64_t off, std::uint8_t* dst,
                              std::size_t n) const {
  if (!is_->seekg(static_cast<std::streamoff>(off)) ||
      !is_->read(reinterpret_cast<char*>(dst),
                 static_cast<std::streamsize>(n))) {
    throw trace_format_error("trace v3: file truncated after open");
  }
}

void trace_v3_cursor::validate_blocks() {
  if (!is_->seekg(0, std::ios::end)) {
    throw std::runtime_error("trace v3: cannot seek the stream");
  }
  size_ = static_cast<std::size_t>(is_->tellg());
  if (size_ < kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: file shorter than the header");
  }
  std::uint8_t h[kTraceV3HeaderBytes];
  read_at(0, h, sizeof(h));
  if (std::memcmp(h, kTraceV3Magic, sizeof(kTraceV3Magic)) != 0) {
    throw trace_format_error("trace v3: bad magic");
  }
  const std::uint32_t version = load_le<std::uint32_t>(h + 8);
  if (version != kTraceV3Version) {
    throw trace_format_error("trace v3: unsupported version " +
                             std::to_string(version));
  }
  if (load_le<std::uint32_t>(h + 12) != kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: unexpected header size");
  }
  count_ = load_le<std::uint64_t>(h + 16);
  const std::uint64_t block_count = load_le<std::uint64_t>(h + 24);
  records_per_block_ = load_le<std::uint32_t>(h + 48);
  if (records_per_block_ == 0) {
    throw trace_format_error("trace v3: zero records per block");
  }
  // One walk over the block headers pins down every block's placement and
  // size before any decode: blocks must tile [64, file end) exactly, carry
  // non-decreasing ingress bounds and column sizes that fill them, and hold
  // record_count records between them. Truncation, trailing garbage and a
  // forged count are caught here rather than mid-replay, so size_hint() is
  // trustworthy from construction on. The walk follows the file, so a
  // header count never sizes anything.
  std::uint64_t end = kTraceV3HeaderBytes;
  std::uint64_t records = 0;
  sim::time_ps prev_max = INT64_MIN;
  while (end != size_) {  // end <= size_ by induction
    if (size_ - end < kTraceV3BlockHeaderBytes) {
      throw trace_format_error(
          "trace v3: file size disagrees with the block sizes");
    }
    std::uint8_t raw[kTraceV3BlockHeaderBytes];
    read_at(end, raw, sizeof(raw));
    const v3_block_header b =
        check_block_header(raw, size_ - end, records_per_block_);
    if (b.min_ingress > b.max_ingress || b.min_ingress < prev_max) {
      throw trace_format_error("trace v3: blocks out of ingress order");
    }
    block_offsets_.push_back(end);
    records += b.records;
    prev_max = b.max_ingress;
    end += b.bytes;
  }
  if (records != count_) {
    throw trace_format_error(
        "trace v3: blocks disagree with the declared record count");
  }
  if (block_offsets_.size() != block_count) {
    throw trace_format_error(
        "trace v3: blocks disagree with the declared block count");
  }
}

std::array<std::uint8_t, kTraceV3BlockHeaderBytes> trace_v3_cursor::header_at(
    std::uint64_t b) const {
  if (b >= block_offsets_.size()) {
    throw std::out_of_range("trace v3: block number out of range");
  }
  std::array<std::uint8_t, kTraceV3BlockHeaderBytes> h;
  read_at(block_offsets_[b], h.data(), h.size());
  return h;
}

trace_v3_cursor::block_bounds trace_v3_cursor::bounds_at(
    std::uint64_t b) const {
  const auto h = header_at(b);
  return {block_offsets_[b], load_le<std::uint32_t>(h.data() + 4),
          load_le<std::int64_t>(h.data() + 8),
          load_le<std::int64_t>(h.data() + 16)};
}

std::uint32_t trace_v3_cursor::records_in_block(std::uint64_t b) const {
  return load_le<std::uint32_t>(header_at(b).data());
}

std::array<std::uint32_t, kTraceV3ColumnCount>
trace_v3_cursor::column_bytes_at(std::uint64_t b) const {
  const auto h = header_at(b);
  return check_block_header(h.data(), size_ - block_offsets_[b],
                            records_per_block_)
      .col_bytes;
}

void trace_v3_cursor::decode_block(std::uint64_t b) {
  // The block runs to the next block's offset, or to the end of the file.
  const std::uint64_t off = block_offsets_[b];
  const std::uint64_t bytes =
      (b + 1 < block_offsets_.size() ? block_offsets_[b + 1] : size_) - off;
  if (block_bytes_.size() < bytes) block_bytes_.resize(bytes);
  std::uint8_t* const p = block_bytes_.data();
  read_at(off, p, bytes);
  // The walk at open checked this header in the file; checking the copy
  // too keeps a file rewritten since then inside the buffer.
  const v3_block_header h = check_block_header(p, bytes, records_per_block_);
  const std::uint32_t n = h.records;
  const sim::time_ps base = h.min_ingress;
  const sim::time_ps bmax = h.max_ingress;
  column_reader col[kTraceV3ColumnCount] = {};
  const std::uint8_t* q = p + kTraceV3BlockHeaderBytes;
  for (std::size_t c = 0; c < kTraceV3ColumnCount; ++c) {
    col[c] = {q, q + h.col_bytes[c], kTraceV3ColumnNames[c]};
    q += h.col_bytes[c];
  }
  // Never shrink the slots: a short block would otherwise destroy warmed
  // vector capacities that a later, fuller block needs again.
  if (records_.size() < n) records_.resize(n);
  packet_record* const rec = records_.data();
  {
    column_reader& c = col[kColIngress];
    if (c.next() != 0) {
      throw trace_format_error("trace v3: first ingress delta must be zero");
    }
    rec[0].ingress_time = base;
    for (std::uint32_t i = 1; i < n; ++i) {
      const sim::time_ps t = wrap_add(rec[i - 1].ingress_time,
                                      static_cast<sim::time_ps>(c.next()));
      if (t < rec[i - 1].ingress_time) {
        throw trace_format_error(
            "trace v3: ingress not monotone within a block");
      }
      rec[i].ingress_time = t;
    }
    c.finish();
    if (rec[n - 1].ingress_time != bmax) {
      throw trace_format_error(
          "trace v3: last ingress disagrees with the block bound");
    }
  }
  {
    column_reader& c = col[kColEgress];
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].egress_time = wrap_add(rec[i].ingress_time, unzigzag(c.next()));
    }
    c.finish();
  }
  {
    column_reader& c = col[kColId];
    std::uint64_t id = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      id += static_cast<std::uint64_t>(unzigzag(c.next()));
      rec[i].id = id;
    }
    c.finish();
  }
  {
    column_reader& c = col[kColFlow];
    std::uint64_t flow = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      flow += static_cast<std::uint64_t>(unzigzag(c.next()));
      rec[i].flow_id = flow;
    }
    c.finish();
  }
  {
    column_reader& c = col[kColSeq];
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].seq_in_flow = narrow_u32(c.next(), "seq");
    }
    c.finish();
  }
  {
    column_reader& c = col[kColSize];
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].size_bytes = narrow_u32(c.next(), "size");
    }
    c.finish();
  }
  {
    column_reader& c = col[kColSrc];
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].src_host = narrow_node(unzigzag(c.next()), "src");
    }
    c.finish();
  }
  {
    column_reader& c = col[kColDst];
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].dst_host = narrow_node(unzigzag(c.next()), "dst");
    }
    c.finish();
  }
  {
    column_reader& c = col[kColQdelay];
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].queueing_delay = unzigzag(c.next());
    }
    c.finish();
  }
  {
    column_reader& c = col[kColFlowSize];
    for (std::uint32_t i = 0; i < n; ++i) rec[i].flow_size_bytes = c.next();
    c.finish();
  }
  {
    column_reader& len = col[kColPathLen];
    column_reader& hops = col[kColPath];
    std::uint64_t hops_total = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].path.resize(next_length(
          len, hops_total, hops, "trace v3: path lengths exceed the path column"));
    }
    len.finish();
    for (std::uint32_t i = 0; i < n; ++i) {
      for (node_id& hop : rec[i].path) {
        hop = narrow_node(unzigzag(hops.next()), "hop");
      }
    }
    hops.finish();
  }
  {
    column_reader& len = col[kColDepartsLen];
    column_reader& departs = col[kColDeparts];
    std::uint64_t departs_total = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      rec[i].hop_departs.resize(next_length(
          len, departs_total, departs,
          "trace v3: departs lengths exceed the departs column"));
    }
    len.finish();
    // Each record's departs are a delta chain seeded from its ingress.
    for (std::uint32_t i = 0; i < n; ++i) {
      sim::time_ps prev = rec[i].ingress_time;
      for (sim::time_ps& d : rec[i].hop_departs) {
        prev = wrap_add(prev, unzigzag(departs.next()));
        d = prev;
      }
    }
    departs.finish();
  }
  // A block stores its drop (stall) pair only when one of its records was
  // dropped (stalled). A stored pair's loops write all three fields of every
  // slot, a 0 decoding as the defaults (hop -1, kind buffer, count 0). A
  // block without the pair resets the fields, but only once an earlier
  // block stored it: until then every slot holds the defaults.
  {
    column_reader& info = col[kColDropInfo];
    column_reader& t = col[kColDropTime];
    if (info.bytes() != 0) {
      drops_seen_ = true;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t v = narrow_u32(info.next(), "dropinfo");
        const std::uint32_t hop = (v >> 2) - 1;
        if (v != 0 && ((v & 3) > 1 || hop >= rec[i].path.size())) {
          throw trace_format_error("trace v3: malformed dropinfo value");
        }
        rec[i].drop_hop = static_cast<std::int32_t>(hop);
        rec[i].dropped_kind = static_cast<drop_kind>(v & 3);
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        const sim::time_ps at =
            wrap_add(rec[i].ingress_time, unzigzag(t.next()));
        rec[i].drop_time = rec[i].dropped() ? at : -1;
      }
    } else if (drops_seen_) {
      for (std::uint32_t i = 0; i < n; ++i) {
        rec[i].drop_hop = -1;
        rec[i].dropped_kind = drop_kind::buffer;
        rec[i].drop_time = -1;
      }
    }
    info.finish();
    t.finish();
  }
  {
    column_reader& info = col[kColStallInfo];
    column_reader& t = col[kColStallTime];
    if (info.bytes() != 0) {
      stalls_seen_ = true;
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t v = info.next();
        const std::uint64_t hop = (v & 0xFFFF) - 1;
        const std::uint64_t count = v >> 16;
        if (v != 0 && (hop >= rec[i].path.size() || count == 0 ||
                       count > UINT32_MAX)) {
          throw trace_format_error("trace v3: malformed stallinfo value");
        }
        rec[i].stall_hop = static_cast<std::int32_t>(hop);
        rec[i].stall_count = static_cast<std::uint32_t>(count);
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto stalled = static_cast<sim::time_ps>(t.next());
        if (rec[i].stalled() && stalled < 0) {
          throw trace_format_error("trace v3: malformed stallinfo value");
        }
        rec[i].stall_time = rec[i].stalled() ? stalled : 0;
      }
    } else if (stalls_seen_) {
      for (std::uint32_t i = 0; i < n; ++i) {
        rec[i].stall_hop = -1;
        rec[i].stall_count = 0;
        rec[i].stall_time = 0;
      }
    }
    info.finish();
    t.finish();
  }
  block_n_ = n;
  block_pos_ = 0;
}

const packet_record* trace_v3_cursor::next() {
  if (block_pos_ == block_n_) {
    if (next_block_ == block_offsets_.size()) return nullptr;
    decode_block(next_block_++);
  }
  ++served_;
  return &records_[block_pos_++];
}

}  // namespace ups::net
