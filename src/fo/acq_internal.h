// Internal shared machinery between the Yannakakis evaluator (acq.cc) and
// the answer enumerator (enumerate.cc): equality elimination, relation
// materialization, join-forest construction and the two semijoin passes.
// Not part of the public API.
#ifndef XPV_FO_ACQ_INTERNAL_H_
#define XPV_FO_ACQ_INTERNAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/bool_matrix.h"
#include "common/cancel.h"
#include "fo/acq.h"
#include "hcl/binary_query.h"

namespace xpv::fo::internal {

/// Union-find over variable names (for equality elimination).
class VarUnionFind {
 public:
  std::string Find(const std::string& v);
  void Merge(const std::string& a, const std::string& b);

 private:
  std::map<std::string, std::string> parent_;
};

/// The reduced form of a query: representative variables, per-variable
/// candidate sets, and relation edges between them.
struct ReducedQuery {
  std::vector<std::string> vars;
  std::map<std::string, int> var_id;
  struct Edge {
    /// The relation is oriented u -> v; the ids come in either order, so
    /// an atom's relation is kept as it was read, without a transpose.
    int u, v;
    /// Dense, and possibly borrowed from a RelationCache: never mutated.
    std::shared_ptr<const BoolMatrix> relation;

    const BitMatrix& rel() const { return relation->dense(); }
  };
  std::vector<Edge> edges;
  std::vector<BitVector> candidates;
};

/// Reads relations through `leaves`, merges equalities, collapses parallel
/// edges and applies self-loop filters. An edge borrows its atom's
/// relation unless parallel atoms had to be intersected. `cancel`, when
/// non-null, is observed between atoms so a slow preprocessing stops
/// cooperatively.
Status BuildReduced(const Tree& t, const ConjunctiveQuery& q,
                    VarUnionFind* uf, ReducedQuery* out,
                    hcl::LeafRelations& leaves,
                    CancelToken* cancel = nullptr);

/// The nodes at the far end of `e` related to some node of `set` at its
/// end `from`: the image of `set` when `from` is the edge's source, its
/// preimage (BitMatrix::RowsMeeting) when `from` is the target. Reads the
/// relation in place, whichever way it is oriented.
BitVector AcrossEdge(const ReducedQuery::Edge& e, int from,
                     const BitVector& set);

/// A rooted orientation of the (forest-shaped) variable graph.
struct Forest {
  std::vector<int> parent;       // -1 for roots
  std::vector<int> parent_edge;  // edge index, -1 for roots
  std::vector<int> order;        // BFS order, roots first
};

/// Returns false when the graph contains a cycle.
bool BuildForest(const ReducedQuery& rq, Forest* out);

/// The relation of `child`'s parent edge, oriented parent -> child: the
/// edge's own relation when it already points that way, else a transpose.
std::shared_ptr<const BoolMatrix> ParentToChild(const ReducedQuery& rq,
                                                const Forest& forest,
                                                int child);

/// The two semijoin passes of Yannakakis' algorithm: after this, every
/// surviving candidate value extends to a full solution.
void SemijoinReduce(const Forest& forest, ReducedQuery* rq);

}  // namespace xpv::fo::internal

#endif  // XPV_FO_ACQ_INTERNAL_H_
