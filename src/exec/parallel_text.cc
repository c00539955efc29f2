#include "exec/parallel_text.h"

#include <utility>

#include "util/stringutil.h"

namespace regal {
namespace exec {

namespace {

// Chunk boundaries for `text` over `lanes` chunks, each boundary advanced to
// the next non-identifier byte so tokens never straddle a cut. Returns
// strictly increasing offsets {0, ..., text.size()}; may produce fewer than
// `lanes` chunks when boundaries collide.
std::vector<size_t> ChunkBoundaries(std::string_view text, size_t lanes) {
  std::vector<size_t> cuts;
  cuts.push_back(0);
  for (size_t k = 1; k < lanes; ++k) {
    size_t pos = k * text.size() / lanes;
    while (pos < text.size() && IsIdentChar(text[pos])) ++pos;
    if (pos > cuts.back() && pos < text.size()) cuts.push_back(pos);
  }
  cuts.push_back(text.size());
  return cuts;
}

size_t Lanes(ThreadPool* pool) {
  return pool != nullptr ? static_cast<size_t>(pool->num_threads()) : 1;
}

}  // namespace

std::vector<Token> ParallelTokenize(std::string_view text, ThreadPool* pool,
                                    size_t min_bytes) {
  const size_t lanes = Lanes(pool);
  if (lanes <= 1 || text.size() < min_bytes) return Tokenize(text);
  std::vector<size_t> cuts = ChunkBoundaries(text, lanes);
  const size_t chunks = cuts.size() - 1;
  if (chunks <= 1) return Tokenize(text);
  std::vector<std::vector<Token>> partial(chunks);
  pool->ParallelFor(chunks, [&](size_t k) {
    std::vector<Token> local =
        Tokenize(text.substr(cuts[k], cuts[k + 1] - cuts[k]));
    const Offset shift = static_cast<Offset>(cuts[k]);
    for (Token& t : local) {
      t.left += shift;
      t.right += shift;
    }
    partial[k] = std::move(local);
  });
  size_t total = 0;
  for (const auto& p : partial) total += p.size();
  std::vector<Token> out;
  out.reserve(total);
  for (const auto& p : partial) out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace exec
}  // namespace regal
