#include "nn/serialize.h"

#include <cstring>
#include <unordered_map>

#include "common/bytes.h"
#include "common/fileio.h"
#include "nn/packed.h"

namespace netfm::nn {
namespace {

constexpr char kMagic[4] = {'N', 'F', 'M', 'C'};
constexpr std::uint32_t kVersionLegacy = 1;  // no trailing CRC
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::string_view kStepName = "__ckpt.step";

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct Cursor {
  std::span<const std::uint8_t> data;
  std::size_t at = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (at + 4 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data[at + i];
    at += 4;
    return v;
  }
  std::uint64_t u64() {
    if (at + 8 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data[at + i];
    at += 8;
    return v;
  }
  std::string str(std::size_t n) {
    if (at + n > data.size()) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data.data() + at), n);
    at += n;
    return s;
  }
  bool floats(std::vector<float>& out, std::size_t n) {
    if (n > (data.size() - at) / 4) {
      ok = false;
      return false;
    }
    out.resize(n);
    std::memcpy(out.data(), data.data() + at, n * 4);
    at += n * 4;
    return true;
  }
};

std::vector<std::uint8_t> encode(const ParameterList& params) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), kMagic, kMagic + 4);
  put_u32(out, kVersion);
  put_u32(out, static_cast<std::uint32_t>(params.size()));
  for (const Parameter& p : params) {
    put_u32(out, static_cast<std::uint32_t>(p.name.size()));
    out.insert(out.end(), p.name.begin(), p.name.end());
    const Shape& shape = p.tensor.shape();
    put_u32(out, static_cast<std::uint32_t>(shape.size()));
    for (std::size_t d : shape) put_u64(out, d);
    const auto data = p.tensor.data();
    const std::size_t bytes = data.size() * 4;
    const std::size_t start = out.size();
    out.resize(start + bytes);
    std::memcpy(out.data() + start, data.data(), bytes);
  }
  put_u32(out, crc32(BytesView{out}));
  return out;
}

/// Parses and validates the whole blob against `params` without mutating
/// anything; staged values land in `staged` (parallel to `params`).
bool decode_staged(std::span<const std::uint8_t> blob, ParameterList& params,
                   std::vector<std::vector<float>>& staged) {
  if (blob.size() < 12 || std::memcmp(blob.data(), kMagic, 4) != 0)
    return false;
  Cursor cur{blob, 4};
  const std::uint32_t version = cur.u32();
  if (version != kVersionLegacy && version != kVersion) return false;
  if (version >= 2) {
    // The trailing CRC covers everything before it; verify before trusting
    // a single length field.
    if (blob.size() < 16) return false;
    Cursor tail{blob, blob.size() - 4};
    const std::uint32_t stored = tail.u32();
    if (crc32(blob.subspan(0, blob.size() - 4)) != stored) return false;
    cur.data = blob.subspan(0, blob.size() - 4);
  }
  const std::uint32_t count = cur.u32();

  std::unordered_map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < params.size(); ++i)
    index_of[params[i].name] = i;

  staged.assign(params.size(), {});
  std::vector<bool> seen(params.size(), false);
  std::size_t restored = 0;
  for (std::uint32_t i = 0; i < count && cur.ok; ++i) {
    const std::uint32_t name_len = cur.u32();
    const std::string name = cur.str(name_len);
    const std::uint32_t rank = cur.u32();
    if (rank > kMaxRank) return false;
    Shape shape;
    std::size_t n = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      shape.push_back(static_cast<std::size_t>(cur.u64()));
      // A lying dimension must fail fast, not overflow n or drive a
      // giant staging allocation; floats() bounds the final product too.
      if (shape.back() > cur.data.size() ||
          n > cur.data.size() / std::max<std::size_t>(shape.back(), 1))
        return false;
      n *= shape.back();
    }
    if (!cur.ok) return false;
    const auto it = index_of.find(name);
    if (it == index_of.end() || seen[it->second] ||
        params[it->second].tensor.shape() != shape)
      return false;
    if (!cur.floats(staged[it->second], n)) return false;
    seen[it->second] = true;
    ++restored;
  }
  return cur.ok && restored == params.size();
}

}  // namespace

std::vector<std::uint8_t> save_parameters(const ParameterList& params) {
  return encode(params);
}

bool load_parameters(std::span<const std::uint8_t> blob,
                     ParameterList& params) {
  std::vector<std::vector<float>> staged;
  if (!decode_staged(blob, params, staged)) return false;
  // Everything validated: apply in one pass so failure above never leaves
  // a partially-populated parameter set.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto dst = params[i].tensor.data();
    std::memcpy(dst.data(), staged[i].data(), staged[i].size() * 4);
  }
  bump_weight_epoch();  // packed weight panels are now stale
  return true;
}

bool save_parameters_file(const std::string& path,
                          const ParameterList& params) {
  const auto blob = save_parameters(params);
  return io::write_file_atomic(path, BytesView{blob});
}

bool load_parameters_file(const std::string& path, ParameterList& params) {
  const auto blob = io::read_file(path);
  if (!blob) return false;
  return load_parameters(std::span<const std::uint8_t>(*blob), params);
}

bool save_checkpoint_file(const std::string& path, const ParameterList& params,
                          std::uint64_t step) {
  ParameterList with_meta = params;  // Tensor handles are cheap shared refs
  // Two f32 lanes hold steps exactly up to 2^48 (lo 24 bits, hi 24 bits).
  with_meta.push_back(
      {std::string(kStepName),
       Tensor(Shape{2},
              std::vector<float>{
                  static_cast<float>(step & 0xffffffULL),
                  static_cast<float>(step >> 24)})});
  return save_parameters_file(path, with_meta);
}

std::optional<std::uint64_t> load_checkpoint_file(const std::string& path,
                                                  ParameterList& params) {
  ParameterList with_meta = params;
  Tensor step_tensor(Shape{2}, std::vector<float>{0.0f, 0.0f});
  with_meta.push_back({std::string(kStepName), step_tensor});
  if (!load_parameters_file(path, with_meta)) return std::nullopt;
  const auto lanes = step_tensor.data();
  return (static_cast<std::uint64_t>(lanes[1]) << 24) |
         static_cast<std::uint64_t>(lanes[0]);
}

}  // namespace netfm::nn
