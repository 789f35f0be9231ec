"""The fault-injection harness itself: rules, determinism, activation.

The chaos suite (``test_chaos.py``) exercises the *sites*; this module
pins down the harness mechanics — rule matching, seed-determinism of
probabilistic rules, fire limits, the ``REPRO_FAULTS`` grammar, and the
install/env activation precedence.
"""

from __future__ import annotations

import pytest

from repro.errors import InjectedFault, RequestError
from repro.testing.faults import (
    KNOWN_SITES,
    FaultInjector,
    FaultRule,
    fault_point,
    install,
    parse_faults,
    reset,
)


class TestFaultRule:
    def test_exact_prefix_and_wildcard_matching(self):
        rule = FaultRule("backend.execute")
        assert rule.matches("backend.execute")
        assert rule.matches("backend.execute.vec")
        assert not rule.matches("backend.executes")
        assert not rule.matches("backend")
        assert FaultRule("*").matches("anything.at.all")

    def test_validation(self):
        with pytest.raises(RequestError):
            FaultRule("")
        with pytest.raises(RequestError):
            FaultRule("x", rate=-0.5)
        with pytest.raises(RequestError):
            FaultRule("x", limit=0)


class TestFaultInjector:
    def test_rate_one_fires_every_arrival(self):
        injector = FaultInjector([FaultRule("kernel.op")])
        for expected_sequence in (1, 2, 3):
            with pytest.raises(InjectedFault) as excinfo:
                injector.check("kernel.op")
            assert excinfo.value.site == "kernel.op"
            assert excinfo.value.sequence == expected_sequence
        assert injector.fired("kernel.op") == 3
        assert injector.arrivals("kernel.op") == 3

    def test_limit_caps_fires_but_not_arrivals(self):
        injector = FaultInjector([FaultRule("kernel.op", limit=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.check("kernel.op")
        injector.check("kernel.op")  # limit reached: passes through
        assert injector.fired() == 2
        assert injector.arrivals("kernel.op") == 3

    def test_non_matching_sites_pass_through(self):
        injector = FaultInjector([FaultRule("result_cache.store")])
        injector.check("kernel.op")
        assert injector.fired() == 0

    def test_probabilistic_rules_are_seed_deterministic(self):
        def firing_pattern(seed: int) -> list[bool]:
            injector = FaultInjector(
                [FaultRule("kernel.op", rate=0.3)], seed=seed
            )
            pattern = []
            for _ in range(200):
                try:
                    injector.check("kernel.op")
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert 20 < sum(firing_pattern(7)) < 100  # rate≈0.3 of 200

    def test_sites_draw_independently(self):
        """Interleaving arrivals at another site must not perturb a
        site's own firing sequence (per-site RNG streams)."""

        def fires_at(site: str, interleave: bool) -> list[int]:
            injector = FaultInjector([FaultRule(site, rate=0.5)], seed=3)
            fired = []
            for k in range(100):
                if interleave:
                    injector.check("other.site")
                try:
                    injector.check(site)
                except InjectedFault as fault:
                    fired.append(fault.sequence)
            return fired

        assert fires_at("kernel.op", False) == fires_at("kernel.op", True)


class TestParseFaults:
    def test_full_grammar(self):
        injector = parse_faults(
            "kernel.op:0.2, result_cache.store::1 ,backend.execute.vec"
        )
        sites = [rule.site for rule in injector.rules]
        assert sites == [
            "kernel.op", "result_cache.store", "backend.execute.vec"
        ]
        assert injector.rules[0].rate == 0.2
        assert injector.rules[1].rate == 1.0
        assert injector.rules[1].limit == 1
        assert injector.rules[2].limit is None

    def test_malformed_specs_rejected(self):
        with pytest.raises(RequestError):
            parse_faults("kernel.op:fast")
        with pytest.raises(RequestError):
            parse_faults("kernel.op:1:2:3")
        with pytest.raises(RequestError):
            parse_faults(":")
        # A site that names no injection point would inject nothing.
        for spec in ("kernal.op", "spill.write", "spill.read:0.5",
                     "kernel.op,backend.execute.fortran", "backend.exec",
                     "kernel.op.extra"):
            with pytest.raises(
                RequestError, match="names no injection site"
            ) as error:
                parse_faults(spec)
            assert error.value.field == "faults"
        # The wildcard and dotted prefixes of known sites stay valid.
        for spec in ("*", "backend.execute", "backend", "snapshot.rebuild"):
            assert len(parse_faults(spec).rules) == 1


class TestActivation:
    def test_fault_point_is_inert_without_injector(self):
        with install(None):
            for site in KNOWN_SITES:
                fault_point(site)

    def test_install_scopes_and_restores(self):
        injector = FaultInjector([FaultRule("kernel.op")])
        with install(injector):
            with pytest.raises(InjectedFault):
                fault_point("kernel.op")
        with install(None):
            fault_point("kernel.op")

    def test_env_activation_is_read_after_reset(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kernel.op::1")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "5")
        reset()
        try:
            with pytest.raises(InjectedFault):
                fault_point("kernel.op")
            fault_point("kernel.op")  # limit=1: second arrival passes
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            reset()

    def test_known_sites_cover_the_instrumented_boundaries(self):
        assert "kernel.op" in KNOWN_SITES
        for backend in ("ra", "vec", "sqlite", "reference"):
            assert f"backend.execute.{backend}" in KNOWN_SITES
        assert "result_cache.store" in KNOWN_SITES
        assert "result_cache.load" in KNOWN_SITES
        assert "maintain.apply" in KNOWN_SITES
        assert "snapshot.rebuild" in KNOWN_SITES
