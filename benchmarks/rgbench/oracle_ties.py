"""oracle-ties: ``find_all_pbe`` on random games, every mechanism x variant
spec, at 4, 5 and 6 messages (inside the default profile budget).

Time is dominated by the sunk and installment games: there the restrained
type is indifferent at every t2 cell, so the t2 assignments double with each
message. This tie-heavy worst case loads the oracle almost alone.
"""

from __future__ import annotations

import json
import random
from functools import partial

from restraint_games import (
    DiscreteGame,
    Mechanism,
    MechanismSpec,
    ModelParams,
    Outcome,
    PBEClass,
    TypeLabel,
    Variant,
    find_all_pbe,
    is_weak_pbe,
)

from . import TEMPLATE_SEED, draw_scale
from .spans import Op, count_certificates

MESSAGE_COUNTS = {"full": (4, 5, 6), "tiny": (2, 3)}
SPECS = [MechanismSpec(mech, var) for mech in Mechanism for var in Variant]
R, A = TypeLabel.RESTRAINED, TypeLabel.AGGRESSIVE


def generate(seed: int, size: str) -> list[DiscreteGame]:
    """Fixed game shapes scaled by a seeded factor (see ``draw_scale``)."""
    shapes = random.Random(TEMPLATE_SEED)
    scale = draw_scale(random.Random(seed))
    games = []
    for spec in SPECS:
        for n in MESSAGE_COUNTS[size]:
            c = shapes.uniform(0.2, 1.0)
            params = ModelParams(
                c=scale * c,
                V_D=scale * shapes.uniform(0.3, 2.0),
                V_B=scale * (c + shapes.uniform(0.5, 2.0)),
                r=scale * shapes.uniform(0.0, 1.5),
                prior=shapes.uniform(0.2, 0.8),
            )
            signals = sorted(shapes.sample(range(10, 400), n - 1))
            messages = (0.0, *(scale * k / 100 for k in signals))
            games.append(DiscreteGame(spec, params, messages))
    return games


def describe(games) -> list[dict]:
    return [
        {"spec": g.spec.to_dict(), "params": g.params.to_dict(), "messages": list(g.messages)}
        for g in games
    ]


def points(games):
    return [(g.spec, g.params, m) for g in games for m in g.messages]


def _solve(game: DiscreteGame, tr):
    with tr.span("oracle.find_all_pbe") as s:
        certs = find_all_pbe(game)
    if s is not None:
        count_certificates(s, len(game.messages), certs)
    return certs


def canonical_key(game: DiscreteGame, profile) -> tuple:
    """The documented order: signal indices, then t2 actions (restrained
    cells, then aggressive cells, exploit before restraint), then fights."""
    idx = {m: j for j, m in enumerate(game.messages)}
    return (
        idx[profile.signal_of[R]],
        idx[profile.signal_of[A]],
        tuple(
            profile.t2_action[(t, m)] is Outcome.RESTRAINT
            for t in (R, A)
            for m in game.messages
        ),
        tuple(profile.fight_after[m] for m in game.messages),
    )


def check_certificates(game: DiscreteGame, certs):
    keys = [canonical_key(game, c.profile) for c in certs]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "certificates not in strictly ascending canonical order"
    separating_impossible = (
        game.spec.mechanism in (Mechanism.SUNK, Mechanism.INSTALLMENT)
        or game.spec.variant is Variant.BASE
    )
    for cert in certs:
        if separating_impossible and cert.pbe_class is PBEClass.SEPARATING:
            return f"Separating certificate under {game.spec.to_dict()}"
        again = is_weak_pbe(game, cert.profile)
        if again is None:
            return "certificate does not re-certify through is_weak_pbe"
        if again.pbe_class is not cert.pbe_class:
            return f"re-certified as {again.pbe_class.value}, listed as {cert.pbe_class.value}"
    return None


def _digest(certs) -> bytes:
    return json.dumps([c.to_dict() for c in certs]).encode()


def ops(games) -> list[Op]:
    return [
        Op(
            id=f"{g.spec.mechanism.value}-{g.spec.variant.value}-n{len(g.messages)}",
            run=partial(_solve, g),
            check=partial(check_certificates, g),
            digest=_digest,
        )
        for g in games
    ]


def trace_extras(tr, games, outputs) -> None:
    from . import tracing

    tracing.classify_points(tr, points(games))
