#include "common/bool_matrix.h"

#include <cstdlib>

namespace xpv {

std::string_view MatrixReprName(MatrixRepr repr) {
  // Exhaustive on purpose (no default return): a new representation
  // without a name is a -Wswitch compile warning, not a silent string.
  switch (repr) {
    case MatrixRepr::kAuto:
      return "auto";
    case MatrixRepr::kDense:
      return "dense";
    case MatrixRepr::kSparse:
      return "sparse";
  }
  std::abort();  // unreachable: the switch above covers every enumerator
}

}  // namespace xpv
