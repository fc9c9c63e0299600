#include "chase/sigma_fl.h"

namespace floq {

DependencySet MakeSigmaFLDependencies(World& world) {
  Term o = world.MakeVariable("$O");
  Term a = world.MakeVariable("$A");
  Term t = world.MakeVariable("$T");
  Term t1 = world.MakeVariable("$T1");
  Term v = world.MakeVariable("$V");
  Term w = world.MakeVariable("$W");
  Term c = world.MakeVariable("$C");
  Term c1 = world.MakeVariable("$C1");
  Term c2 = world.MakeVariable("$C2");
  Term c3 = world.MakeVariable("$C3");

  DependencySet sigma;
  sigma.tgds.reserve(11);
  auto tgd = [&](const char* name, const Atom& head,
                 std::vector<Atom> body) {
    sigma.tgds.push_back(Tgd{head, std::move(body), name});
  };
  tgd("rho1", Atom::Member(v, t), {Atom::Type(o, a, t), Atom::Data(o, a, v)});
  tgd("rho2", Atom::Sub(c1, c2), {Atom::Sub(c1, c3), Atom::Sub(c3, c2)});
  tgd("rho3", Atom::Member(o, c1), {Atom::Member(o, c), Atom::Sub(c, c1)});
  sigma.egds.push_back(
      Egd{{Atom::Data(o, a, v), Atom::Data(o, a, w), Atom::Funct(a, o)},
          v,
          w,
          "rho4"});
  tgd("rho5", Atom::Data(o, a, v), {Atom::Mandatory(a, o)});
  tgd("rho6", Atom::Type(o, a, t), {Atom::Member(o, c), Atom::Type(c, a, t)});
  tgd("rho7", Atom::Type(c, a, t), {Atom::Sub(c, c1), Atom::Type(c1, a, t)});
  tgd("rho8", Atom::Type(c, a, t), {Atom::Type(c, a, t1), Atom::Sub(t1, t)});
  tgd("rho9", Atom::Mandatory(a, c),
      {Atom::Sub(c, c1), Atom::Mandatory(a, c1)});
  tgd("rho10", Atom::Mandatory(a, o),
      {Atom::Member(o, c), Atom::Mandatory(a, c)});
  tgd("rho11", Atom::Funct(a, c), {Atom::Sub(c, c1), Atom::Funct(a, c1)});
  tgd("rho12", Atom::Funct(a, o), {Atom::Member(o, c), Atom::Funct(a, c)});
  return sigma;
}

std::vector<Rule> SigmaFLDatalogRules(World& world) {
  DependencySet sigma = MakeSigmaFLDependencies(world);
  std::vector<Rule> rules;
  rules.reserve(sigma.tgds.size());
  for (Tgd& tgd : sigma.tgds) {
    if (tgd.ExistentialVariables().empty()) {
      rules.push_back(Rule{tgd.head, std::move(tgd.body)});
    }
  }
  return rules;
}

}  // namespace floq
