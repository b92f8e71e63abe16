#include "net/trace_binary.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <ostream>

#include "core/varint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define UPS_TRACE_HAVE_MMAP 1
#endif

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

template <typename T>
void append_le(std::vector<std::uint8_t>& buf, T v) {
  const std::size_t n = buf.size();
  buf.resize(n + sizeof(T));
  store_le(buf.data() + n, v);
}

// Maps `path` read-only (falling back to an owned buffer without mmap) and
// advises the kernel that it will be read front to back.
struct file_image {
  void* mapping = nullptr;  // non-null when mmap owns the bytes
  std::size_t mapping_size = 0;
  std::vector<std::uint8_t> owned;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

file_image map_trace_file(const std::string& path) {
  file_image img;
#if UPS_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("trace: cannot open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("trace: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw trace_format_error("trace: file shorter than a trace header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    throw std::runtime_error("trace: mmap failed for " + path);
  }
  // Advice only — a failure costs readahead tuning, never correctness.
#if defined(MADV_SEQUENTIAL)
  (void)::madvise(map, size, MADV_SEQUENTIAL);
#endif
#if defined(MADV_WILLNEED)
  // Every reader drains the whole file; start the fetch now so the first
  // blocks stream in behind the header/index validation pass.
  (void)::madvise(map, size, MADV_WILLNEED);
#endif
  img.mapping = map;
  img.mapping_size = size;
  img.data = static_cast<const std::uint8_t*>(map);
  img.size = size;
#else
  // No mmap on this platform: fall back to reading the file into an owned
  // buffer (still one parse-free image; just not shared across processes).
  // One sized read — istreambuf_iterator would pull the file a character
  // at a time through virtual calls.
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  const std::streamoff size = is.tellg();
  img.owned.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(img.owned.data()), size);
  if (!is) throw std::runtime_error("trace: read failed for " + path);
  img.data = img.owned.data();
  img.size = img.owned.size();
#endif
  return img;
}

[[nodiscard]] bool file_starts_with(const std::string& path,
                                    const char (&magic)[8]) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("trace: cannot open " + path);
  char head[8] = {};
  is.read(head, sizeof(head));
  return is.gcount() == sizeof(head) &&
         std::memcmp(head, magic, sizeof(head)) == 0;
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
  // 16-column (lossy) files only:
  kColDropInfo = 14,
  kColDropTime = 15,
  // 18-column (backpressured) files only:
  kColStallInfo = 16,
  kColStallTime = 17,
};

struct v3_header_fields {
  std::uint64_t record_count = 0;
  std::uint64_t block_count = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t index_capacity = 0;
  std::uint32_t records_per_block = 0;
  std::uint32_t column_count = 0;  // normalized: 0 -> kTraceV3ColumnCount
};

v3_header_fields check_v3_header(const std::uint8_t* data, std::size_t size) {
  if (size < kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: file shorter than the header");
  }
  if (std::memcmp(data, kTraceV3Magic, sizeof(kTraceV3Magic)) != 0) {
    throw trace_format_error("trace v3: bad magic");
  }
  const std::uint32_t version = load_le<std::uint32_t>(data + 8);
  if (version != kTraceV3Version) {
    throw trace_format_error("trace v3: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t header_bytes = load_le<std::uint32_t>(data + 12);
  if (header_bytes != kTraceV3HeaderBytes) {
    throw trace_format_error("trace v3: unexpected header size");
  }
  v3_header_fields h;
  h.record_count = load_le<std::uint64_t>(data + 16);
  h.block_count = load_le<std::uint64_t>(data + 24);
  h.data_offset = load_le<std::uint64_t>(data + 32);
  h.index_capacity = load_le<std::uint64_t>(data + 40);
  h.records_per_block = load_le<std::uint32_t>(data + 48);
  if (h.records_per_block == 0) {
    throw trace_format_error("trace v3: zero records per block");
  }
  h.column_count = load_le<std::uint32_t>(data + 52);
  if (h.column_count == 0) h.column_count = kTraceV3ColumnCount;
  if (h.column_count != kTraceV3ColumnCount &&
      h.column_count != kTraceV3DropColumnCount &&
      h.column_count != kTraceV3StallColumnCount) {
    throw trace_format_error("trace v3: unsupported column count " +
                             std::to_string(h.column_count));
  }
  // Division-form bound first so the multiplication below cannot overflow.
  if (h.index_capacity >
      (size - kTraceV3HeaderBytes) / kTraceV3IndexEntryBytes) {
    throw trace_format_error("trace v3: index region out of bounds");
  }
  if (h.data_offset != kTraceV3HeaderBytes +
                           kTraceV3IndexEntryBytes * h.index_capacity) {
    throw trace_format_error(
        "trace v3: data offset disagrees with index capacity");
  }
  if (h.block_count > h.index_capacity) {
    throw trace_format_error("trace v3: block count exceeds index capacity");
  }
  return h;
}

}  // namespace

bool is_trace_v3_file(const std::string& path) {
  return file_starts_with(path, kTraceV3Magic);
}

// --- v3 writer ---------------------------------------------------------------

trace_v3_writer::trace_v3_writer(std::ostream& os,
                                 std::uint64_t record_capacity,
                                 std::uint32_t records_per_block,
                                 bool with_drops, bool with_stalls)
    : os_(&os),
      records_per_block_(records_per_block),
      ncols_(with_stalls ? kTraceV3StallColumnCount
             : with_drops ? kTraceV3DropColumnCount
                          : kTraceV3ColumnCount) {
  if (records_per_block_ == 0) {
    throw std::logic_error("trace_v3_writer: records_per_block must be > 0");
  }
  index_capacity_ =
      (record_capacity + records_per_block_ - 1) / records_per_block_;
  data_offset_ = kTraceV3HeaderBytes +
                 static_cast<std::uint64_t>(kTraceV3IndexEntryBytes) *
                     index_capacity_;
  offset_ = data_offset_;
  std::uint8_t header[kTraceV3HeaderBytes] = {};
  std::memcpy(header, kTraceV3Magic, sizeof(kTraceV3Magic));
  store_le<std::uint32_t>(header + 8, kTraceV3Version);
  store_le<std::uint32_t>(header + 12, kTraceV3HeaderBytes);
  // record_count / block_count at 16/24 stay zero until finish() patches.
  store_le<std::uint64_t>(header + 32, data_offset_);
  store_le<std::uint64_t>(header + 40, index_capacity_);
  store_le<std::uint32_t>(header + 48, records_per_block_);
  // Zero-loss files leave column_count 0 (legacy spelling of the 14 base
  // columns) so their bytes stay identical to pre-drop-support output.
  if (ncols_ != kTraceV3ColumnCount) {
    store_le<std::uint32_t>(header + 52, ncols_);
  }
  os_->write(reinterpret_cast<const char*>(header), sizeof(header));
  // Reserve the index region as zeros; finish() seeks back and fills it.
  static constexpr std::size_t kChunk = 1 << 16;
  std::uint8_t zeros[kChunk] = {};
  std::uint64_t left =
      static_cast<std::uint64_t>(kTraceV3IndexEntryBytes) * index_capacity_;
  while (left > 0) {
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, kChunk));
    os_->write(reinterpret_cast<const char*>(zeros),
               static_cast<std::streamsize>(step));
    left -= step;
  }
  if (!*os_) throw trace_format_error("trace v3: header write failed");
  index_.reserve(index_capacity_);
}

void trace_v3_writer::append(const packet_record& r) {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: append after finish");
  }
  if (r.ingress_time < last_ingress_) {
    throw trace_format_error(
        "trace v3: records must be appended in ingress order");
  }
  last_ingress_ = r.ingress_time;
  if (in_block_ == 0) {
    block_base_ = r.ingress_time;
    prev_ingress_ = r.ingress_time;
    prev_id_ = 0;
    prev_flow_ = 0;
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
  if (ncols_ >= kTraceV3DropColumnCount) {
    const std::uint64_t info =
        r.dropped() ? ((static_cast<std::uint64_t>(r.drop_hop) + 1) << 2) |
                          static_cast<std::uint64_t>(r.dropped_kind)
                    : 0;
    put_varint(cols_[kColDropInfo], info);
    put_varint(cols_[kColDropTime],
               r.dropped() ? zigzag(wrap_diff(r.drop_time, r.ingress_time))
                           : 0);
  } else if (r.dropped()) {
    throw trace_format_error(
        "trace v3: dropped record appended to a writer without drop "
        "columns");
  }
  if (ncols_ >= kTraceV3StallColumnCount) {
    const std::uint64_t sinfo =
        r.stalled() ? (static_cast<std::uint64_t>(r.stall_count) << 16) |
                          (static_cast<std::uint64_t>(r.stall_hop) + 1)
                    : 0;
    put_varint(cols_[kColStallInfo], sinfo);
    put_varint(cols_[kColStallTime],
               r.stalled() ? static_cast<std::uint64_t>(r.stall_time) : 0);
  } else if (r.stalled()) {
    throw trace_format_error(
        "trace v3: stalled record appended to a writer without stall "
        "columns");
  }
  ++in_block_;
  ++written_;
  if (in_block_ == records_per_block_) flush_block();
}

void trace_v3_writer::flush_block() {
  if (in_block_ == 0) return;
  if (index_.size() == index_capacity_) {
    throw trace_format_error(
        "trace v3: writer exceeded its declared record capacity");
  }
  const std::uint32_t header_bytes = trace_v3_block_header_bytes(ncols_);
  std::uint64_t bytes = header_bytes;
  for (std::size_t c = 0; c < ncols_; ++c) bytes += cols_[c].size();
  if (bytes > UINT32_MAX) {
    throw trace_format_error("trace v3: block exceeds 4 GiB");
  }
  block_buf_.clear();
  block_buf_.resize(header_bytes);
  std::uint8_t* h = block_buf_.data();
  store_le<std::uint32_t>(h, in_block_);
  store_le<std::uint32_t>(h + 4, static_cast<std::uint32_t>(bytes));
  store_le<std::int64_t>(h + 8, block_base_);
  store_le<std::int64_t>(h + 16, prev_ingress_);  // block max ingress
  for (std::size_t c = 0; c < ncols_; ++c) {
    store_le<std::uint32_t>(h + 24 + 4 * c,
                            static_cast<std::uint32_t>(cols_[c].size()));
  }
  for (std::size_t c = 0; c < ncols_; ++c) {
    block_buf_.insert(block_buf_.end(), cols_[c].begin(), cols_[c].end());
    cols_[c].clear();
  }
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  if (!*os_) throw trace_format_error("trace v3: block write failed");
  index_.push_back({offset_, bytes, block_base_, prev_ingress_});
  offset_ += bytes;
  in_block_ = 0;
}

void trace_v3_writer::finish() {
  if (finished_) {
    throw std::logic_error("trace_v3_writer: finish called twice");
  }
  flush_block();
  finished_ = true;
  block_buf_.clear();
  for (const auto& e : index_) {
    append_le<std::uint64_t>(block_buf_, e.offset);
    append_le<std::uint64_t>(block_buf_, e.bytes);
    append_le<std::int64_t>(block_buf_, e.min_ingress);
    append_le<std::int64_t>(block_buf_, e.max_ingress);
  }
  os_->seekp(kTraceV3HeaderBytes);
  os_->write(reinterpret_cast<const char*>(block_buf_.data()),
             static_cast<std::streamsize>(block_buf_.size()));
  os_->seekp(16);
  block_buf_.clear();
  append_le<std::uint64_t>(block_buf_, written_);
  append_le<std::uint64_t>(block_buf_, index_.size());
  os_->write(reinterpret_cast<const char*>(block_buf_.data()), 16);
  os_->seekp(0, std::ios::end);
  os_->flush();
  if (!*os_) throw trace_format_error("trace v3: index write failed");
}

void write_trace_v3(std::ostream& os, const trace& t) {
  // Emit in (ingress, position) order — the stable tie-break
  // trace_ingress_cursor uses — so any input order produces the same file
  // and the same replay as the v1 path.
  std::vector<std::uint32_t> order(t.packets.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return t.packets[a].ingress_time <
                            t.packets[b].ingress_time;
                   });
  bool any_dropped = false;
  bool any_stalled = false;
  for (const auto& r : t.packets) {
    if (r.dropped()) any_dropped = true;
    if (r.stalled()) any_stalled = true;
    if (any_dropped && any_stalled) break;
  }
  trace_v3_writer w(os, t.packets.size(), kTraceV3BlockRecords, any_dropped,
                    any_stalled);
  for (const std::uint32_t i : order) w.append(t.packets[i]);
  w.finish();
}

void save_trace_v3(const std::string& path, const trace& t) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  write_trace_v3(os, t);
}

trace read_trace_v3(const std::uint8_t* data, std::size_t size) {
  trace_v3_cursor cur(data, size);
  trace t;
  t.packets.reserve(cur.size_hint());
  while (const packet_record* r = cur.next()) t.packets.push_back(*r);
  return t;
}

trace load_trace_v3(const std::string& path) {
  trace_v3_cursor cur(path);
  trace t;
  t.packets.reserve(cur.size_hint());
  while (const packet_record* r = cur.next()) t.packets.push_back(*r);
  return t;
}

// --- v3 cursor ---------------------------------------------------------------

trace_v3_cursor::trace_v3_cursor(const std::string& path) {
  file_image img = map_trace_file(path);
  mapping_ = img.mapping;
  mapping_size_ = img.mapping_size;
  owned_bytes_ = std::move(img.owned);
  data_ = mapping_ != nullptr ? img.data : owned_bytes_.data();
  size_ = img.size;
  validate_header_and_index();
}

trace_v3_cursor::trace_v3_cursor(const std::uint8_t* data, std::size_t size)
    : data_(data), size_(size) {
  validate_header_and_index();
}

trace_v3_cursor::~trace_v3_cursor() {
#if UPS_TRACE_HAVE_MMAP
  if (mapping_ != nullptr) ::munmap(mapping_, mapping_size_);
#endif
}

void trace_v3_cursor::validate_header_and_index() {
  const v3_header_fields h = check_v3_header(data_, size_);
  count_ = h.record_count;
  block_count_ = h.block_count;
  data_offset_ = h.data_offset;
  index_capacity_ = h.index_capacity;
  records_per_block_ = h.records_per_block;
  ncols_ = h.column_count;
  // One pass over the leading index and the block headers' record counts
  // pins down every block's placement and size before any decode: blocks
  // must tile [data_offset, file end) exactly, carry non-decreasing ingress
  // bounds, and hold record_count records between them. Truncation,
  // trailing garbage and a forged record_count are caught here rather than
  // mid-replay, so size_hint() is trustworthy from construction on.
  const std::uint32_t header_bytes = trace_v3_block_header_bytes(ncols_);
  std::uint64_t end = data_offset_;
  std::uint64_t records = 0;
  sim::time_ps prev_max = INT64_MIN;
  for (std::uint64_t b = 0; b < block_count_; ++b) {
    const block_bounds e = bounds_at(b);
    if (e.bytes < header_bytes) {
      throw trace_format_error("trace v3: block smaller than its header");
    }
    if (e.offset != end) {
      throw trace_format_error("trace v3: index entry out of place");
    }
    if (e.bytes > size_ - e.offset) {  // e.offset <= size_ by induction
      throw trace_format_error("trace v3: block out of bounds");
    }
    if (e.min_ingress > e.max_ingress || e.min_ingress < prev_max) {
      throw trace_format_error("trace v3: block index out of order");
    }
    // Each record spends at least one byte in every per-record column (all
    // but the path and departs data columns), so a count the block's bytes
    // cannot hold is forged — rejected before it can size the record slots.
    const std::uint32_t n = load_le<std::uint32_t>(data_ + e.offset);
    if (n == 0 || n > records_per_block_ ||
        n > (e.bytes - header_bytes) / (ncols_ - 2)) {
      throw trace_format_error("trace v3: block record count out of range");
    }
    records += n;
    prev_max = e.max_ingress;
    end = e.offset + e.bytes;
  }
  if (end != size_) {
    throw trace_format_error(
        "trace v3: file size disagrees with the block index");
  }
  if (records != count_) {
    throw trace_format_error(
        "trace v3: blocks disagree with the declared record count");
  }
}

trace_v3_cursor::block_bounds trace_v3_cursor::bounds_at(
    std::uint64_t b) const {
  if (b >= index_capacity_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  const std::uint8_t* e =
      data_ + kTraceV3HeaderBytes + kTraceV3IndexEntryBytes * b;
  block_bounds out;
  out.offset = load_le<std::uint64_t>(e);
  out.bytes = load_le<std::uint64_t>(e + 8);
  out.min_ingress = load_le<std::int64_t>(e + 16);
  out.max_ingress = load_le<std::int64_t>(e + 24);
  return out;
}

std::uint32_t trace_v3_cursor::records_in_block(std::uint64_t b) const {
  if (b >= block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  return load_le<std::uint32_t>(data_ + bounds_at(b).offset);
}

std::array<std::uint32_t, kTraceV3MaxColumnCount>
trace_v3_cursor::column_bytes_at(std::uint64_t b) const {
  if (b >= block_count_) {
    throw std::out_of_range("trace v3: block index out of range");
  }
  const std::uint8_t* h = data_ + bounds_at(b).offset;
  // Columns the file does not store read back as zero bytes.
  std::array<std::uint32_t, kTraceV3MaxColumnCount> out{};
  for (std::size_t c = 0; c < ncols_; ++c) {
    out[c] = load_le<std::uint32_t>(h + 24 + 4 * c);
  }
  return out;
}

void trace_v3_cursor::decode_block(std::uint64_t b) {
  const block_bounds e = bounds_at(b);
  const std::uint8_t* p = data_ + e.offset;
  // The record count was range-checked against the block at open.
  const std::uint32_t n = load_le<std::uint32_t>(p);
  const std::uint32_t block_bytes = load_le<std::uint32_t>(p + 4);
  const sim::time_ps base = load_le<std::int64_t>(p + 8);
  const sim::time_ps bmax = load_le<std::int64_t>(p + 16);
  if (block_bytes != e.bytes || base != e.min_ingress ||
      bmax != e.max_ingress) {
    throw trace_format_error(
        "trace v3: block header disagrees with the index");
  }
  const auto col_bytes = column_bytes_at(b);
  std::uint64_t total = trace_v3_block_header_bytes(ncols_);
  for (std::size_t c = 0; c < ncols_; ++c) total += col_bytes[c];
  if (total != e.bytes) {
    throw trace_format_error(
        "trace v3: column sizes disagree with the block size");
  }
  column_reader col[kTraceV3MaxColumnCount] = {};
  const std::uint8_t* q = p + trace_v3_block_header_bytes(ncols_);
  for (std::size_t c = 0; c < ncols_; ++c) {
    col[c] = {q, q + col_bytes[c], kTraceV3ColumnNames[c]};
    q += col_bytes[c];
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
  if (ncols_ >= kTraceV3DropColumnCount) {
    column_reader& info = col[kColDropInfo];
    for (std::uint32_t i = 0; i < n; ++i) {
      packet_record& r = rec[i];
      const std::uint32_t v = narrow_u32(info.next(), "dropinfo");
      r.drop_hop = -1;
      r.dropped_kind = drop_kind::buffer;
      r.drop_time = -1;
      if (v == 0) continue;
      const std::uint32_t kind = v & 3;
      const std::uint32_t hop = (v >> 2) - 1;
      if (kind > 1 || hop >= r.path.size()) {
        throw trace_format_error("trace v3: malformed dropinfo value");
      }
      r.drop_hop = static_cast<std::int32_t>(hop);
      r.dropped_kind = static_cast<drop_kind>(kind);
    }
    info.finish();
    column_reader& t = col[kColDropTime];
    for (std::uint32_t i = 0; i < n; ++i) {
      const sim::time_ps at = wrap_add(rec[i].ingress_time, unzigzag(t.next()));
      if (rec[i].dropped()) rec[i].drop_time = at;
    }
    t.finish();
  }
  if (ncols_ >= kTraceV3StallColumnCount) {
    column_reader& info = col[kColStallInfo];
    for (std::uint32_t i = 0; i < n; ++i) {
      packet_record& r = rec[i];
      const std::uint64_t v = info.next();
      r.stall_hop = -1;
      r.stall_count = 0;
      r.stall_time = 0;
      if (v == 0) continue;
      const std::uint64_t hop = (v & 0xFFFF) - 1;
      const std::uint64_t count = v >> 16;
      if (hop >= r.path.size() || count == 0 || count > UINT32_MAX) {
        throw trace_format_error("trace v3: malformed stallinfo value");
      }
      r.stall_hop = static_cast<std::int32_t>(hop);
      r.stall_count = static_cast<std::uint32_t>(count);
    }
    info.finish();
    column_reader& t = col[kColStallTime];
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto stalled = static_cast<sim::time_ps>(t.next());
      if (!rec[i].stalled()) continue;
      if (stalled < 0) {
        throw trace_format_error("trace v3: malformed stallinfo value");
      }
      rec[i].stall_time = stalled;
    }
    t.finish();
  }
  block_n_ = n;
  block_pos_ = 0;
}

const packet_record* trace_v3_cursor::next() {
  if (block_pos_ == block_n_) {
    if (next_block_ == block_count_) return nullptr;
    decode_block(next_block_++);
  }
  ++served_;
  return &records_[block_pos_++];
}

}  // namespace ups::net
