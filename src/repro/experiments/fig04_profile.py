"""Figure 4: the CPU profile breakdown and the flat method profile.

The paper's Figure 4 breaks the last five minutes of a 60-minute run
into software components.  The surrounding text reports:

* WebSphere consumes ~2x the CPU of the web server and DB2 combined;
* only ~2% of cycles run the jas2004 benchmark's own code;
* the hottest method (a char-to-byte converter) takes <1%;
* ~50% of JITed time is spread over 224 of ~8500 methods;
* about half of the WAS process runtime is outside JITed code;
* WebSphere + Enterprise Java Services + Java library code are ~76%
  of the JITed time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import ExperimentConfig
from repro.core.profile_analysis import ProfileAnalysis, analyze_profile
from repro.cpu.regions import AddressSpace
from repro.experiments.common import Row, bench_config, fmt, header, simulate
from repro.jvm.jit import JitCompiler
from repro.jvm.methods import MethodRegistry
from repro.tools.tprof import TprofReport
from repro.util.rng import RngFactory


@dataclass
class Figure4Result:
    config: ExperimentConfig
    component_shares: Dict[str, float]
    jas2004_share: float
    hottest_name: str
    profile: ProfileAnalysis
    was_nonjited_fraction_of_was: float
    core_jited_share: float  # WAS + EJS + Java library, of JITed time
    tprof: TprofReport

    def rows(self) -> List[Row]:
        shares = self.component_shares
        was = shares.get("was_jited", 0.0) + shares.get("was_nonjited", 0.0)
        web_db = shares.get("web", 0.0) + shares.get("db2", 0.0)
        ratio = was / web_db if web_db else float("inf")
        profile = self.profile
        return [
            Row(
                "WAS cycles vs web server + DB2",
                "profile.was_over_web_db",
                ratio,
                fmt(ratio, 2, "x"),
            ),
            Row(
                "jas2004 benchmark code share of CPU",
                "profile.jas2004_share",
                self.jas2004_share,
                fmt(self.jas2004_share * 100, 1, "%"),
            ),
            Row(
                "hottest method share of JITed time",
                "profile.hottest_method_share",
                profile.hottest_share,
                fmt(profile.hottest_share * 100, 2, "%"),
                config=self.config,
            ),
            Row(
                "methods covering 50% of JITed time",
                "profile.methods_for_half_jited",
                profile.items_for_half,
                str(profile.items_for_half),
                config=self.config,
            ),
            Row(
                "90/10 rule applies",
                "profile.ninety_ten_applies",
                profile.ninety_ten_applies,
                "no" if not profile.ninety_ten_applies else "yes",
            ),
            Row(
                "non-JITed share of WAS process time",
                "profile.was_nonjited_share",
                self.was_nonjited_fraction_of_was,
                fmt(self.was_nonjited_fraction_of_was * 100, 0, "%"),
            ),
            Row(
                "WAS+EJS+JavaLib share of JITed time",
                "profile.core_jited_share",
                self.core_jited_share,
                fmt(self.core_jited_share * 100, 0, "%"),
            ),
        ]

    def render_lines(self) -> List[str]:
        lines = header("Figure 4: Profile Breakdown - % of Runtime")
        for name, share in sorted(
            self.component_shares.items(), key=lambda kv: -kv[1]
        ):
            bar = "#" * int(round(share * 60))
            lines.append(f"  {name:13s} {share * 100:5.1f}% {bar}")
        lines.append("")
        lines.extend(self.tprof.render_lines(top=10))
        lines.append("")
        lines.extend(r.render() for r in self.rows())
        return lines


def run(config: Optional[ExperimentConfig] = None) -> Figure4Result:
    config = config if config is not None else bench_config()
    rngs = RngFactory(config.seed)
    result = simulate(config, rng_fork="workload")
    space = AddressSpace.build(config.machine, config.jvm, config.workload.sharing)
    registry = MethodRegistry(config.jvm, space, rngs.stream("registry"))
    jit = JitCompiler(registry, rngs.stream("jit"))
    tprof = TprofReport(result, registry, jit=jit)

    shares = tprof.component_shares()
    was_total = shares.get("was_jited", 0.0) + shares.get("was_nonjited", 0.0)
    nonjited_frac = shares.get("was_nonjited", 0.0) / was_total if was_total else 0.0
    core_share = sum(
        registry.component_share(c) for c in ("websphere", "ejs", "javalib")
    )
    return Figure4Result(
        config=config,
        component_shares=shares,
        jas2004_share=tprof.jas2004_share(),
        hottest_name=tprof.hottest_method().name,
        profile=analyze_profile([m.weight for m in registry.methods]),
        was_nonjited_fraction_of_was=nonjited_frac,
        core_jited_share=core_share,
        tprof=tprof,
    )
