"""Synthetic chain databases matching an application profile.

The cost model describes a world of ``n + 1`` object types connected by
one attribute per level; :class:`ChainGenerator` builds a *live*
:class:`~repro.gom.database.ObjectBase` realizing such a world:

* types ``T0 … Tn`` with, per level ``i``, either a single-valued
  attribute ``A : T_{i+1}`` (``fan_i == 1``) or a set-valued attribute
  ``A : SET_T{i+1}`` holding ``fan_i`` members;
* ``c_i`` objects per type, of which a uniformly chosen ``d_i`` define
  their attribute;
* targets drawn uniformly at random (matching the cost model's
  collision-aware sharing default).

The generated database drives the empirical validation benchmarks: build
ASRs over the chain path, run queries through the storage simulator, and
compare measured page accesses with the analytical predictions — using
:func:`measure_profile` to feed the *actual* realized characteristics
back into the model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.costmodel.parameters import ApplicationProfile
from repro.costmodel.profiling import profile_from_database
from repro.errors import CostModelError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID
from repro.gom.paths import PathExpression
from repro.gom.schema import Schema
from repro.storage.objectstore import ClusteredObjectStore


@dataclass
class GeneratedDatabase:
    """A generated chain world: object base, path, store, and layers."""

    db: ObjectBase
    path: PathExpression
    store: ClusteredObjectStore
    profile: ApplicationProfile
    #: ``layers[i]`` lists the OIDs of the ``T_i`` objects, in creation order.
    layers: list[list[OID]]

    @property
    def n(self) -> int:
        return self.profile.n


class ChainGenerator:
    """Builds chain object bases from (integer-valued) profiles."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def generate(self, profile: ApplicationProfile) -> GeneratedDatabase:
        """Materialize a database whose shape follows ``profile``.

        All counts must be integers (scale the paper's profiles down
        before generating; the analytical model is what handles the
        full-size numbers).
        """
        rng = random.Random(self.seed)
        n = profile.n
        counts = [int(c) for c in profile.c]
        defined = [int(d) for d in profile.d]
        fans = [max(1, round(f)) for f in profile.fan]
        for i, (c, value) in enumerate(zip(counts, profile.c)):
            if c != value:
                raise CostModelError(f"c[{i}] must be an integer to generate")
        schema = Schema()
        set_valued = [profile.fan[i] != 1 for i in range(n)]
        # Define types from the tail so attribute targets exist.
        schema.define_tuple(f"T{n}", {"Payload": "INTEGER"})
        for i in range(n - 1, -1, -1):
            if set_valued[i]:
                schema.define_set(f"SET_T{i + 1}", f"T{i + 1}")
                schema.define_tuple(f"T{i}", {"A": f"SET_T{i + 1}"})
            else:
                schema.define_tuple(f"T{i}", {"A": f"T{i + 1}"})
        schema.validate()

        db = ObjectBase(schema)
        layers: list[list[OID]] = []
        for i in range(n, -1, -1):
            layer = [db.new(f"T{i}") for _ in range(counts[i])]
            layers.append(layer)
        layers.reverse()
        for i in range(n):
            owners = rng.sample(layers[i], min(defined[i], counts[i]))
            for owner in owners:
                targets = [rng.choice(layers[i + 1]) for _ in range(fans[i])]
                if set_valued[i]:
                    collection = db.new_set(f"SET_T{i + 1}", set(targets))
                    db.set_attr(owner, "A", collection)
                else:
                    db.set_attr(owner, "A", targets[0])

        # Give the chain terminals queryable atomic values.  A dedicated
        # rng keeps the link topology above byte-identical to what every
        # earlier seed produced — Payload draws never perturb it.
        payload_rng = random.Random(self.seed + 0x5EED)
        for oid in layers[n]:
            db.set_attr(oid, "Payload", payload_rng.randrange(1_000_000))

        sizes = {}
        if profile.size:
            for i in range(n + 1):
                sizes[f"T{i}"] = int(profile.size_(i))
                sizes[f"SET_T{i}"] = 8  # collections are inlined-ish
        store = ClusteredObjectStore(sizes or None)
        store.attach(db)
        path = PathExpression(schema, "T0", tuple("A" for _ in range(n)))
        return GeneratedDatabase(db, path, store, profile, layers)


def measure_profile(
    generated: GeneratedDatabase, size: tuple[float, ...] | None = None
) -> ApplicationProfile:
    """The *realized* characteristics of a generated database.

    :func:`~repro.costmodel.profiling.profile_from_database` over the
    chain path — measured ``c_i``, ``d_i``, average ``fan_i`` and
    ``shar_i``, the honest inputs for comparing analytical predictions
    against simulator measurements (random generation makes the realized
    values deviate slightly from the requested ones).  Object sizes are
    ``size`` when given, else the generating profile's (the profiler's
    default when that has none).
    """
    sizes = size if size is not None else generated.profile.size
    return profile_from_database(
        generated.db, generated.path, dict(zip(generated.path.types, sizes))
    )
