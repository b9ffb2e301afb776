#include "hcl/translate.h"

#include "xpath/fragment.h"

namespace xpv::hcl {

namespace {

using xpath::NodeRef;
using xpath::PathExpr;
using xpath::PathKind;
using xpath::PathPtr;
using xpath::TestExpr;
using xpath::TestKind;

/// Wraps a variable-free Core XPath 2.0 subexpression as a single PPLbin
/// binary-query leaf (via Fig. 4).
Result<HclPtr> PplBinLeaf(const PathExpr& p) {
  XPV_ASSIGN_OR_RETURN(ppl::PplBinPtr bin, ppl::FromXPath(p));
  return HclExpr::Binary(MakePplBinQuery(std::move(bin)));
}

Result<HclPtr> Translate(const PathExpr& p);

/// L./[T]M^{-1}: the partial identity of test T as an HCL formula.
Result<HclPtr> TranslateFilterTest(const TestExpr& t) {
  switch (t.kind) {
    case TestKind::kPath: {
      // LP1[P2]M^{-1} = LP1M^{-1} / [LP2M^{-1}] (NVS([]) ensures NVS(/)).
      XPV_ASSIGN_OR_RETURN(HclPtr inner, Translate(*t.path));
      return HclExpr::Filter(std::move(inner));
    }
    case TestKind::kIs: {
      // [. is .]: every node -- the identity, i.e. the `self` binary query.
      if (t.lhs.is_dot && t.rhs.is_dot) {
        return HclExpr::Binary(MakePplBinQuery(ppl::PplBinExpr::Self()));
      }
      // [. is $x] (either side): the HCL variable node test x.
      if (t.lhs.is_dot != t.rhs.is_dot) {
        const std::string& var = t.lhs.is_dot ? t.rhs.var : t.lhs.var;
        return HclExpr::Var(var);
      }
      // [$x is $y]: passes exactly at alpha(x) when alpha(x) = alpha(y);
      // the composition x/y of two variable tests.
      return HclExpr::Compose(HclExpr::Var(t.lhs.var),
                              HclExpr::Var(t.rhs.var));
    }
    case TestKind::kNot: {
      // LP[not T]M^{-1} = LPM^{-1} / .[not T]: NV(not) makes .[not T]
      // variable-free, hence a PPLbin leaf by Proposition 4.
      xpath::PathPtr as_path =
          PathExpr::Filter(PathExpr::Dot(), TestExpr::Not(t.a->Clone()));
      XPV_RETURN_IF_ERROR(xpath::CheckNoVariables(*as_path));
      return PplBinLeaf(*as_path);
    }
    case TestKind::kAnd: {
      // LP[T1 and T2]M^{-1} = LPM^{-1}/L./[T1]M^{-1}/L./[T2]M^{-1}
      // (NVS(and) guarantees NVS(/)).
      XPV_ASSIGN_OR_RETURN(HclPtr l, TranslateFilterTest(*t.a));
      XPV_ASSIGN_OR_RETURN(HclPtr r, TranslateFilterTest(*t.b));
      return HclExpr::Compose(std::move(l), std::move(r));
    }
    case TestKind::kOr: {
      // LP[T1 or T2]M^{-1} = P/(L./[T1]M^{-1} union L./[T2]M^{-1}).
      XPV_ASSIGN_OR_RETURN(HclPtr l, TranslateFilterTest(*t.a));
      XPV_ASSIGN_OR_RETURN(HclPtr r, TranslateFilterTest(*t.b));
      return HclExpr::Union(std::move(l), std::move(r));
    }
  }
  return Status::Internal("unreachable test kind");
}

Result<HclPtr> Translate(const PathExpr& p) {
  switch (p.kind) {
    case PathKind::kStep:
      // LA::NM^{-1} = A::N (a PPLbin step).
      return HclExpr::Binary(MakePplBinQuery(
          ppl::PplBinExpr::Step(p.axis, p.name_test.empty() ? "*"
                                                            : p.name_test)));
    case PathKind::kDot:
      // L.M^{-1} = self.
      return HclExpr::Binary(MakePplBinQuery(ppl::PplBinExpr::Self()));
    case PathKind::kVar:
      // L$xM^{-1} = nodes/x.
      return HclExpr::Compose(HclExpr::Binary(MakeFullRelationQuery()),
                              HclExpr::Var(p.var));
    case PathKind::kFor:
      return Status::FragmentViolation("N(for): PPL has no for-loops");
    case PathKind::kCompose: {
      XPV_ASSIGN_OR_RETURN(HclPtr l, Translate(*p.left));
      XPV_ASSIGN_OR_RETURN(HclPtr r, Translate(*p.right));
      return HclExpr::Compose(std::move(l), std::move(r));
    }
    case PathKind::kUnion: {
      XPV_ASSIGN_OR_RETURN(HclPtr l, Translate(*p.left));
      XPV_ASSIGN_OR_RETURN(HclPtr r, Translate(*p.right));
      return HclExpr::Union(std::move(l), std::move(r));
    }
    case PathKind::kIntersect:
    case PathKind::kExcept:
      // NV(intersect)/NV(except): the whole subexpression is variable-free
      // and collapses into one PPLbin leaf modulo Proposition 4.
      XPV_RETURN_IF_ERROR(xpath::CheckNoVariables(p));
      return PplBinLeaf(p);
    case PathKind::kFilter: {
      XPV_ASSIGN_OR_RETURN(HclPtr l, Translate(*p.left));
      XPV_ASSIGN_OR_RETURN(HclPtr t, TranslateFilterTest(*p.test));
      return HclExpr::Compose(std::move(l), std::move(t));
    }
  }
  return Status::Internal("unreachable path kind");
}

}  // namespace

Result<HclPtr> PplToHcl(const xpath::PathExpr& p) {
  XPV_RETURN_IF_ERROR(xpath::CheckPpl(p));
  return Translate(p);
}

Result<xpath::PathPtr> HclToPpl(const HclExpr& c) {
  switch (c.kind) {
    case HclKind::kBinary: {
      // LbM = b, included into Core XPath 2.0 syntax.
      if (const auto* pplbin =
              dynamic_cast<const PplBinQuery*>(c.binary.get())) {
        return ppl::ToXPath(pplbin->expr());
      }
      if (const auto* axis = dynamic_cast<const AxisQuery*>(c.binary.get())) {
        return PathExpr::Step(axis->axis(), axis->name_test().empty()
                                                ? "*"
                                                : axis->name_test());
      }
      if (dynamic_cast<const FullRelationQuery*>(c.binary.get()) != nullptr) {
        return xpath::MakeNodesExpr();
      }
      return Status::InvalidArgument(
          "HclToPpl requires PPLbin/axis/full-relation binary queries, got " +
          c.binary->ToString());
    }
    case HclKind::kCompose: {
      XPV_ASSIGN_OR_RETURN(PathPtr l, HclToPpl(*c.left));
      XPV_ASSIGN_OR_RETURN(PathPtr r, HclToPpl(*c.right));
      return PathExpr::Compose(std::move(l), std::move(r));
    }
    case HclKind::kVar:
      // LxM = .[. is $x].
      return PathExpr::Filter(
          PathExpr::Dot(),
          TestExpr::Is(NodeRef::Dot(), NodeRef::Var(c.var)));
    case HclKind::kFilter: {
      // L[C]M = .[LCM].
      XPV_ASSIGN_OR_RETURN(PathPtr inner, HclToPpl(*c.left));
      return PathExpr::Filter(PathExpr::Dot(),
                              TestExpr::Path(std::move(inner)));
    }
    case HclKind::kUnion: {
      XPV_ASSIGN_OR_RETURN(PathPtr l, HclToPpl(*c.left));
      XPV_ASSIGN_OR_RETURN(PathPtr r, HclToPpl(*c.right));
      return PathExpr::Union(std::move(l), std::move(r));
    }
  }
  return Status::Internal("unreachable HCL kind");
}

}  // namespace xpv::hcl
