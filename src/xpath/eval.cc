#include "xpath/eval.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace xpv::xpath {

Result<BitMatrix> DirectEvaluator::TryEvalPath(const PathExpr& p,
                                               const Assignment& alpha) {
  const std::size_t n = tree_.size();
  switch (p.kind) {
    case PathKind::kStep: {
      // [[A::N]] = {(v1,v2) in A(t) | v2 in lab_N(t)}.
      // This evaluator is inherently dense (every node materializes a
      // |t| x |t| matrix); above the dense ceiling the leaf fails with
      // kResourceExhausted, which serving callers report as a job error.
      return cache_->DenseStep(p.axis, p.name_test);
    }
    case PathKind::kDot:
      // [[.]] = {(v,v)}.
      return BitMatrix::Identity(n);
    case PathKind::kVar: {
      // [[$x]] = {(v, alpha(x)) | v in nodes(t)}.
      auto it = alpha.find(p.var);
      assert(it != alpha.end() && "unbound variable in path evaluation");
      BitMatrix m(n);
      for (NodeId v = 0; v < n; ++v) m.Set(v, it->second);
      return m;
    }
    case PathKind::kCompose: {
      // [[P1/P2]] = [[P1]] o [[P2]].
      XPV_ASSIGN_OR_RETURN(BitMatrix a, TryEvalPath(*p.left, alpha));
      XPV_ASSIGN_OR_RETURN(BitMatrix b, TryEvalPath(*p.right, alpha));
      return a.Multiply(b);
    }
    case PathKind::kUnion: {
      XPV_ASSIGN_OR_RETURN(BitMatrix a, TryEvalPath(*p.left, alpha));
      XPV_ASSIGN_OR_RETURN(BitMatrix b, TryEvalPath(*p.right, alpha));
      return a.Or(b);
    }
    case PathKind::kIntersect: {
      XPV_ASSIGN_OR_RETURN(BitMatrix a, TryEvalPath(*p.left, alpha));
      XPV_ASSIGN_OR_RETURN(BitMatrix b, TryEvalPath(*p.right, alpha));
      return a.And(b);
    }
    case PathKind::kExcept: {
      // [[P1 except P2]] = [[P1]] - [[P2]].
      XPV_ASSIGN_OR_RETURN(BitMatrix a, TryEvalPath(*p.left, alpha));
      XPV_ASSIGN_OR_RETURN(BitMatrix b, TryEvalPath(*p.right, alpha));
      return a.AndNot(b);
    }
    case PathKind::kFilter: {
      // [[P[T]]] = {(v1,v2) in [[P]] | v2 in [[T]]_test}.
      XPV_ASSIGN_OR_RETURN(BitMatrix a, TryEvalPath(*p.left, alpha));
      XPV_ASSIGN_OR_RETURN(BitVector test, TryEvalTest(*p.test, alpha));
      return a.MaskColumns(test);
    }
    case PathKind::kFor: {
      // [[for $x in P1 return P2]] =
      //   {(v1,v3) | ex. v2: (v1,v2) in [[P1]]^alpha
      //              and (v1,v3) in [[P2]]^{alpha[x->v2]}}.
      XPV_ASSIGN_OR_RETURN(BitMatrix seq, TryEvalPath(*p.left, alpha));
      BitMatrix out(n);
      for (NodeId v2 = 0; v2 < n; ++v2) {
        // Rows v1 for which (v1, v2) in [[P1]].
        BitVector rows(n);
        for (NodeId v1 = 0; v1 < n; ++v1) {
          if (seq.Get(v1, v2)) rows.Set(v1);
        }
        if (rows.None()) continue;
        Assignment alpha2 = alpha;
        alpha2[p.var] = v2;
        XPV_ASSIGN_OR_RETURN(BitMatrix body, TryEvalPath(*p.right, alpha2));
        rows.ForEachSet([&](std::size_t v1) {
          out.OrIntoRow(v1, body.Row(v1));
        });
      }
      return out;
    }
  }
  std::abort();  // unreachable: the switch above covers every PathKind
}

Result<BitVector> DirectEvaluator::TryEvalTest(const TestExpr& t,
                                               const Assignment& alpha) {
  const std::size_t n = tree_.size();
  switch (t.kind) {
    case TestKind::kPath: {
      // [[P]]_test = {v | (v, v') in [[P]]}.
      XPV_ASSIGN_OR_RETURN(BitMatrix m, TryEvalPath(*t.path, alpha));
      return m.NonEmptyRows();
    }
    case TestKind::kIs: {
      BitVector out(n);
      if (t.lhs.is_dot && t.rhs.is_dot) {
        // [[. is .]] = nodes(t).
        out.Fill();
        return out;
      }
      if (t.lhs.is_dot != t.rhs.is_dot) {
        // [[. is $x]] = {alpha(x)} (and symmetrically).
        const std::string& var = t.lhs.is_dot ? t.rhs.var : t.lhs.var;
        auto it = alpha.find(var);
        assert(it != alpha.end() && "unbound variable in comparison test");
        out.Set(it->second);
        return out;
      }
      // [[$x is $y]] = {alpha(x)} when alpha(x) = alpha(y), else {}.
      auto ix = alpha.find(t.lhs.var);
      auto iy = alpha.find(t.rhs.var);
      assert(ix != alpha.end() && iy != alpha.end());
      if (ix->second == iy->second) out.Set(ix->second);
      return out;
    }
    case TestKind::kNot: {
      XPV_ASSIGN_OR_RETURN(BitVector out, TryEvalTest(*t.a, alpha));
      out.Complement();
      return out;
    }
    case TestKind::kAnd: {
      XPV_ASSIGN_OR_RETURN(BitVector out, TryEvalTest(*t.a, alpha));
      XPV_ASSIGN_OR_RETURN(BitVector b, TryEvalTest(*t.b, alpha));
      out.AndWith(b);
      return out;
    }
    case TestKind::kOr: {
      XPV_ASSIGN_OR_RETURN(BitVector out, TryEvalTest(*t.a, alpha));
      XPV_ASSIGN_OR_RETURN(BitVector b, TryEvalTest(*t.b, alpha));
      out.OrWith(b);
      return out;
    }
  }
  std::abort();  // unreachable: the switch above covers every TestKind
}

BitMatrix DirectEvaluator::EvalPath(const PathExpr& p,
                                    const Assignment& alpha) {
  Result<BitMatrix> m = TryEvalPath(p, alpha);
  if (!m.ok()) {
    std::fprintf(stderr, "DirectEvaluator::EvalPath: %s\n",
                 m.status().ToString().c_str());
    std::abort();  // unchecked entry point: small-tree callers only
  }
  return std::move(m).value();
}

BitVector DirectEvaluator::EvalTest(const TestExpr& t,
                                    const Assignment& alpha) {
  Result<BitVector> v = TryEvalTest(t, alpha);
  if (!v.ok()) {
    std::fprintf(stderr, "DirectEvaluator::EvalTest: %s\n",
                 v.status().ToString().c_str());
    std::abort();  // unchecked entry point: small-tree callers only
  }
  return std::move(v).value();
}

TupleSet ExpandWildcardPositions(const TupleSet& tuples,
                                 const std::vector<std::size_t>& free_positions,
                                 std::size_t num_nodes) {
  if (free_positions.empty()) return tuples;
  TupleSet out;
  for (const NodeTuple& base : tuples) {
    // Odometer over the free positions.
    NodeTuple tuple = base;
    std::vector<NodeId> counters(free_positions.size(), 0);
    while (true) {
      for (std::size_t i = 0; i < free_positions.size(); ++i) {
        tuple[free_positions[i]] = counters[i];
      }
      out.insert(tuple);
      std::size_t i = 0;
      for (; i < counters.size(); ++i) {
        if (++counters[i] < num_nodes) break;
        counters[i] = 0;
      }
      if (i == counters.size()) break;
    }
  }
  return out;
}

TupleSet DirectEvaluator::EvalNaryNaive(
    const PathExpr& p, const std::vector<std::string>& tuple_vars) {
  const std::size_t n = tree_.size();
  const std::set<std::string> free_vars = FreeVars(p);
  const std::vector<std::string> vars(free_vars.begin(), free_vars.end());

  // Tuple positions whose variable is not constrained by P.
  std::vector<std::size_t> wildcard_positions;
  for (std::size_t i = 0; i < tuple_vars.size(); ++i) {
    if (!free_vars.contains(tuple_vars[i])) wildcard_positions.push_back(i);
  }

  TupleSet constrained;
  Assignment alpha;
  // Odometer over assignments to Var(P).
  std::vector<NodeId> counters(vars.size(), 0);
  while (true) {
    for (std::size_t i = 0; i < vars.size(); ++i) alpha[vars[i]] = counters[i];
    if (!EvalPath(p, alpha).None()) {
      NodeTuple tuple(tuple_vars.size(), 0);
      for (std::size_t i = 0; i < tuple_vars.size(); ++i) {
        auto it = alpha.find(tuple_vars[i]);
        if (it != alpha.end()) tuple[i] = it->second;
      }
      constrained.insert(tuple);
    }
    std::size_t i = 0;
    for (; i < counters.size(); ++i) {
      if (++counters[i] < n) break;
      counters[i] = 0;
    }
    if (i == counters.size() || vars.empty()) break;
  }
  return ExpandWildcardPositions(constrained, wildcard_positions, n);
}

}  // namespace xpv::xpath
