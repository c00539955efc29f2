#ifndef REGAL_EXEC_PARALLEL_TEXT_H_
#define REGAL_EXEC_PARALLEL_TEXT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "exec/thread_pool.h"
#include "text/tokenizer.h"

namespace regal {
namespace exec {

/// Tokenize(text) distributed over `pool`: the parallel scan phase of the
/// word-index build. The text is split into per-lane chunks whose boundaries
/// are snapped forward to the next non-identifier byte, so no token
/// straddles a cut — each chunk tokenizes exactly the tokens the sequential
/// pass would find there, and the concatenation (chunks are in text order) is
/// identical to the sequential result. Null pool or short text runs the
/// sequential tokenizer.
std::vector<Token> ParallelTokenize(std::string_view text, ThreadPool* pool,
                                    size_t min_bytes = size_t{1} << 16);

}  // namespace exec
}  // namespace regal

#endif  // REGAL_EXEC_PARALLEL_TEXT_H_
