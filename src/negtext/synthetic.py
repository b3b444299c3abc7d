"""Synthetic hypersphere world and oracle generation client.

Concepts (ID classes, near-OOD classes attached to parent ID classes,
far-OOD clusters) are unit prototypes; images and text features are
prototypes perturbed by angular (von-Mises-Fisher-like) noise, so
everything stays unit-norm by construction. The oracle client answers
description requests with a token tied to the image's generating concept
(coarsely, for near-OOD, where a description cannot beat the parent
class) and lookalike requests with the angularly nearest non-ID concepts,
inventing plausible twins when none are close enough.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingMatrix, LabelSpace, TestBatch, batches_truth
from .errors import ConfigError
from .metrics import MetricReport, compute_report, split_scores
from .pipeline import PipelineConfig, run_stream
from .scoring import ScoreConfig
from .mining import MiningConfig
from .spaces import CorpusCandidates

# settings every scenario shares
NEAR_SPREAD = 0.30  # angular spread of near-OOD images around their concept
CORPUS_WORD_NOISE = 0.70  # spread of near and far corpus words
EXPRESSIVE_NOISE = 0.08  # spread of a far-OOD description around its cluster
LOOKALIKE_ANGLE = 0.60  # angle of invented twins around their ID class
SIMILAR_THRESHOLD = 0.75  # widest angle at which an OOD concept is a lookalike


@dataclass(frozen=True)
class WorldConfig:
    dim: int = 64
    n_id_classes: int = 20
    id_spread: float = 0.35
    text_noise: float = 0.05
    # near-OOD classes, each attached to a parent ID class
    n_near_classes: int = 0
    near_offset: float = 0.45
    # far-OOD clusters, each anchored at (but far from) an ID prototype
    n_far_clusters: int = 0
    far_angle: float = 1.15
    far_spread: float = 0.25
    # corpus composition
    corpus_random: int = 400
    corpus_near_words: int = 0
    corpus_far_words: int = 0
    # oracle behavior
    coarse_noise: float = 0.30
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"world seed must be >= 0, got {self.seed}")
        if self.dim < 2 or self.n_id_classes < 1:
            raise ConfigError("world needs dim >= 2 and at least one ID class")
        if self.n_far_clusters > 0 and self.far_angle <= self.near_offset:
            raise ConfigError(
                "far clusters must sit farther out than the near-OOD offset"
            )
        for name in ("id_spread", "far_spread", "text_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


def _hash_seed(*parts) -> np.random.SeedSequence:
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode()).digest()
    return np.random.SeedSequence(int.from_bytes(digest[:8], "little"))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _tangent(rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
    v = rng.standard_normal(p.shape[0])
    v -= np.dot(v, p) * p
    return v / np.linalg.norm(v)


def _rotate(p: np.ndarray, angle: float, rng: np.random.Generator) -> np.ndarray:
    if angle == 0.0:
        return np.array(p)
    t = _tangent(rng, p)
    return np.cos(angle) * p + np.sin(angle) * t


def _perturb(p: np.ndarray, spread: float, rng: np.random.Generator) -> np.ndarray:
    return _rotate(p, abs(rng.normal(0.0, spread)) if spread > 0 else 0.0, rng)


@dataclass(frozen=True)
class Concept:
    name: str
    proto: np.ndarray
    role: str  # "id" | "near" | "far"
    parent: int | None = None  # ID class index for near concepts


class SyntheticWorld:
    """Deterministic world: prototypes, label space, corpus, image stream."""

    def __init__(self, cfg: WorldConfig):
        self.cfg = cfg
        rng = np.random.default_rng(_hash_seed(cfg.seed, "world"))
        d = cfg.dim

        self.id_concepts: list[Concept] = []
        for i in range(cfg.n_id_classes):
            self.id_concepts.append(
                Concept(name=f"class_{i:02d}", proto=_unit(rng, d), role="id")
            )
        self.near_concepts: list[Concept] = []
        for j in range(cfg.n_near_classes):
            parent = j % cfg.n_id_classes
            proto = _rotate(self.id_concepts[parent].proto, cfg.near_offset, rng)
            self.near_concepts.append(
                Concept(name=f"near_{j:02d}", proto=proto, role="near", parent=parent)
            )
        self.far_concepts: list[Concept] = []
        for k in range(cfg.n_far_clusters):
            anchor = k % cfg.n_id_classes
            proto = _rotate(self.id_concepts[anchor].proto, cfg.far_angle, rng)
            min_angle = float(
                np.min(
                    np.arccos(
                        np.clip(
                            [np.dot(proto, c.proto) for c in self.id_concepts],
                            -1.0,
                            1.0,
                        )
                    )
                )
            )
            if min_angle <= cfg.near_offset:
                raise ConfigError(
                    "far cluster landed inside the near-OOD band; "
                    "widen far_angle or shrink near_offset"
                )
            self.far_concepts.append(
                Concept(name=f"far_{k:02d}", proto=proto, role="far")
            )
        self.ood_concepts = self.near_concepts + self.far_concepts
        self.concepts = {
            c.name: c for c in self.id_concepts + self.ood_concepts
        }

        label_rows = np.stack(
            [
                _perturb(c.proto, cfg.text_noise, rng)
                for c in self.id_concepts
            ]
        )
        self.label_space = LabelSpace(
            labels=tuple(c.name for c in self.id_concepts),
            features=EmbeddingMatrix.from_rows(
                [f"txt_{c.name}" for c in self.id_concepts], label_rows
            ),
        )

        words: list[str] = []
        vectors: list[np.ndarray] = []
        for i in range(cfg.corpus_random):
            words.append(f"word_{i:04d}")
            vectors.append(_unit(rng, d))
        for i in range(cfg.corpus_near_words):
            concept = self.near_concepts[i % max(1, len(self.near_concepts))]
            words.append(f"nearword_{i:04d}")
            vectors.append(_perturb(concept.proto, CORPUS_WORD_NOISE, rng))
        for i in range(cfg.corpus_far_words):
            concept = self.far_concepts[i % max(1, len(self.far_concepts))]
            words.append(f"farword_{i:04d}")
            vectors.append(_perturb(concept.proto, CORPUS_WORD_NOISE, rng))
        self.corpus = CorpusCandidates(
            words=tuple(words),
            features=EmbeddingMatrix.from_rows(
                [f"corpus_{i:04d}" for i in range(len(words))], np.stack(vectors)
            ),
        )

        self.image_concepts: dict[str, str] = {}
        self._image_counter = 0

    def _sample_image(
        self, concept: Concept, rng: np.random.Generator
    ) -> tuple[str, np.ndarray]:
        spread = {
            "id": self.cfg.id_spread,
            "near": NEAR_SPREAD,
            "far": self.cfg.far_spread,
        }[concept.role]
        image_id = f"img_{self._image_counter:06d}"
        self._image_counter += 1
        self.image_concepts[image_id] = concept.name
        return image_id, _perturb(concept.proto, spread, rng)

    def make_batches(
        self, n_batches: int, id_per_batch: int, ood_per_batch: int
    ) -> list[TestBatch]:
        counts = (n_batches, id_per_batch, ood_per_batch)
        if min(counts) < 0 or n_batches == 0 or id_per_batch + ood_per_batch == 0:
            raise ConfigError(
                "batch counts must be >= 0 with at least one batch of at least "
                "one image, got {} batches of {} ID and {} OOD images".format(*counts)
            )
        if ood_per_batch > 0 and not self.ood_concepts:
            raise ConfigError("world has no OOD concepts to sample from")
        rng = np.random.default_rng(_hash_seed(self.cfg.seed, "stream"))
        batches = []
        for _ in range(n_batches):
            entries = []
            for _ in range(id_per_batch):
                concept = self.id_concepts[rng.integers(len(self.id_concepts))]
                image_id, vec = self._sample_image(concept, rng)
                entries.append((image_id, vec, "ID"))
            for _ in range(ood_per_batch):
                concept = self.ood_concepts[rng.integers(len(self.ood_concepts))]
                image_id, vec = self._sample_image(concept, rng)
                entries.append((image_id, vec, "OOD"))
            rng.shuffle(entries)
            batches.append(
                TestBatch(
                    images=EmbeddingMatrix.from_rows(
                        [e[0] for e in entries],
                        np.stack([e[1] for e in entries]),
                    ),
                    ground_truth=tuple(e[2] for e in entries),
                )
            )
        return batches

    def oracle_client(self, concepts: dict[str, str] | None = None) -> "OracleClient":
        """The oracle of this world. It knows each image's concept from
        `concepts` (image id -> concept name), by default from the images
        `make_batches` drew."""
        if concepts is None:
            concepts = self.image_concepts
        return OracleClient(self, concepts)


class OracleClient:
    """Generation client that answers from the world's ground truth.

    Descriptions of far-OOD images embed tightly at their cluster; for
    near-OOD (and mis-mined ID) images the description is deliberately
    coarse and lands near the parent ID prototype, since a short phrase
    cannot separate a lookalike from its parent class. Deterministic for
    a fixed world seed regardless of call order.

    An embedding row is a pure function of its text and the tokens
    registered when it is asked for: a text whose label (the text with the
    prompt template stripped) is a token perturbs that token's vector, any
    other text the vector of the longest token it holds as a word, and a
    text that holds none is a free unit row; each draw is seeded by the
    text alone. The client does work in proportion to the distinct rows it
    gives: a request embeds each of its distinct texts once, a twin's
    vector is drawn when the twin is first named, and the tokens' longest-
    first order is re-sorted only once the table has grown. The rows of
    texts whose label is a token are kept, at most two per token (the bare
    token and its prompt): a token's vector is never replaced, so such a
    row never changes. Rows of other texts are not kept, as a token
    registered later can change them.
    """

    def __init__(self, world: SyntheticWorld, concepts: dict[str, str]):
        self.world = world
        self.concepts = concepts  # image id -> concept name
        self.cfg = world.cfg
        self._tokens: dict[str, np.ndarray] = {}
        self._longest_first: list[str] = []
        self._token_rows: dict[str, np.ndarray] = {}  # text -> its kept row
        # ID label text features are reachable by name too
        for concept, row in zip(
            world.id_concepts, world.label_space.features.data
        ):
            self._tokens[concept.name] = np.array(row)
        for concept in world.ood_concepts:
            self._register(
                concept.name, concept.proto, self.cfg.text_noise, "label"
            )

    def _register(
        self, token: str, proto: np.ndarray, spread: float, salt: str
    ) -> np.ndarray:
        if token not in self._tokens:
            rng = np.random.default_rng(
                _hash_seed(self.cfg.seed, "token", salt, token)
            )
            self._tokens[token] = _perturb(proto, spread, rng)
        return self._tokens[token]

    def _describe_token(self, concept: Concept) -> str:
        if concept.role == "far":
            token = f"scene_{concept.name}"
            self._register(token, concept.proto, EXPRESSIVE_NOISE, "desc")
        else:
            parent = (
                self.world.id_concepts[concept.parent]
                if concept.role == "near"
                else concept
            )
            token = f"kin_{parent.name}"
            self._register(token, parent.proto, self.cfg.coarse_noise, "desc")
        return token

    def describe_image(self, image_ref: str, exclude_label: str) -> str:
        concept_name = self.concepts.get(image_ref)
        if concept_name is None:
            return "an unidentifiable object on a plain background"
        token = self._describe_token(self.world.concepts[concept_name])
        return f"a photo of something resembling {token} in the scene"

    def similar_labels(self, class_name: str, count: int) -> list[str]:
        concept = self.world.concepts.get(class_name)
        if concept is None or concept.role != "id":
            return [f"{class_name} twin {i}" for i in range(count)]
        p = concept.proto
        scored = sorted(
            (
                (
                    float(np.arccos(np.clip(np.dot(p, c.proto), -1.0, 1.0))),
                    c.name,
                )
                for c in self.world.ood_concepts
            ),
        )
        close = [
            name for angle, name in scored if angle <= SIMILAR_THRESHOLD
        ]
        out = close[:count]
        # invented lookalikes cluster around the nearest confusable concept
        # when one exists; otherwise they fan out around the class itself
        # (the false-negative failure mode of naive lookalike generation)
        if close:
            anchor = self.world.concepts[close[0]].proto
            twin_angle = 0.2
        else:
            anchor = p
            twin_angle = LOOKALIKE_ANGLE
        i = 0
        while len(out) < count:
            token = f"{class_name} twin {i}"
            if token not in self._tokens:
                rng = np.random.default_rng(
                    _hash_seed(self.cfg.seed, "twin", class_name, i)
                )
                self._tokens[token] = _rotate(anchor, twin_angle, rng)
            out.append(token)
            i += 1
        return out

    def _embed_one(self, text: str) -> np.ndarray:
        row = self._token_rows.get(text)
        if row is not None:
            return row
        label = text
        template = self.world.label_space.prompt_template
        prefix, _, suffix = template.partition("<label>")
        if text.startswith(prefix) and text.endswith(suffix):
            label = text[len(prefix) : len(text) - len(suffix)]
        base = self._tokens.get(label)
        keep = base is not None
        if base is None:
            # tokens are only ever added, so a table of another size has grown
            if len(self._longest_first) != len(self._tokens):
                self._longest_first = sorted(self._tokens, key=len, reverse=True)
            for token in self._longest_first:
                if f" {token} " in f" {text} ":
                    base = self._tokens[token]
                    break
            if base is None:
                rng = np.random.default_rng(
                    _hash_seed(self.cfg.seed, "freetext", text)
                )
                return _unit(rng, self.cfg.dim)
        rng = np.random.default_rng(_hash_seed(self.cfg.seed, "embed", text))
        row = _perturb(base, self.cfg.text_noise, rng)
        if keep:
            self._token_rows[text] = row
        return row

    def embed_texts(self, texts: list[str]) -> np.ndarray:
        # one row per distinct text, gathered for each of its repeats
        slots: dict[str, int] = {}
        index = [slots.setdefault(text, len(slots)) for text in texts]
        return np.stack([self._embed_one(text) for text in slots])[index]


SCENARIOS = ("far", "near", "mixed")


def scenario_world_config(name: str, seed: int = 42) -> WorldConfig:
    base = dict(dim=64, n_id_classes=20, seed=seed)
    if name == "far":
        return WorldConfig(
            n_far_clusters=4,
            far_angle=0.75,
            far_spread=0.30,
            id_spread=0.25,
            corpus_random=200,
            corpus_far_words=24,
            **base,
        )
    if name == "near":
        # three corpus words for six near classes: half the clusters are
        # invisible to the fixed word space, so the baseline has errors
        # that only the adaptive lookalike labels recover
        return WorldConfig(
            n_near_classes=6,
            near_offset=0.50,
            id_spread=0.25,
            corpus_random=197,
            corpus_near_words=3,
            coarse_noise=0.55,
            **base,
        )
    if name == "mixed":
        # mined negatives mix both regimes; description coarseness is set
        # so sentence and lookalike spaces split the work roughly evenly
        return WorldConfig(
            n_near_classes=4,
            n_far_clusters=3,
            far_angle=0.75,
            far_spread=0.30,
            near_offset=0.50,
            id_spread=0.25,
            corpus_random=192,
            corpus_near_words=6,
            corpus_far_words=2,
            coarse_noise=0.40,
            **base,
        )
    raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIOS}")


def scenario_pipeline_config() -> PipelineConfig:
    # class_ratio is widened relative to the production default: with only
    # 20 ID classes the subset must still span every near-OOD parent
    return PipelineConfig(
        score=ScoreConfig(temperature=0.01, group_size=25),
        mining=MiningConfig(class_ratio=0.35),
        num_negatives=200,
    )


@dataclass(frozen=True)
class ScenarioResult:
    baseline: MetricReport
    adapted: MetricReport
    lambda_history: tuple[float, ...]


def run_scenario(
    name: str,
    pipeline_cfg: PipelineConfig | None = None,
    n_batches: int = 5,
    id_per_batch: int = 400,
    ood_per_batch: int = 400,
    seed: int = 42,
) -> ScenarioResult:
    """Run one adaptive stream. The frozen baseline is its `s_nl` column:
    spaces that never regenerate fuse two copies of the initial word space."""
    cfg = pipeline_cfg or scenario_pipeline_config()
    world = SyntheticWorld(scenario_world_config(name, seed=seed))
    batches = world.make_batches(n_batches, id_per_batch, ood_per_batch)
    truth = batches_truth(batches)
    records, state = run_stream(
        batches, world.label_space, world.corpus, world.oracle_client(), cfg,
        seed=seed,
    )
    frozen = [replace(r, s_ada=r.s_nl) for r in records]
    return ScenarioResult(
        baseline=compute_report(*split_scores(frozen, truth)),
        adapted=compute_report(*split_scores(records, truth)),
        lambda_history=tuple(state.lambda_history),
    )
