"""Model persistence: save and load trained taggers and embeddings.

A production pipeline trains once and tags many times; these helpers
serialize the from-scratch models without pickle (no arbitrary code
execution on load — a deliberate choice for artifacts that may be
shared). Format: one directory per model, ``meta.json`` for structure
and a ``weights.npz`` for arrays.

Supported: :class:`~repro.ml.crf.CrfTagger`,
:class:`~repro.ml.lstm.LstmTagger`,
:class:`~repro.embeddings.word2vec.Word2Vec`.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import asdict

import numpy as np

from ..config import CrfConfig, LstmConfig
from ..errors import ModelError, NotFittedError
from ..nlp.vocab import Vocabulary
from .crf import CrfTagger
from .lstm import LstmTagger

_FORMAT_VERSION = 1

#: Files every saved model consists of (manifest-covered by default).
MODEL_FILES = ("meta.json", "weights.npz")

MANIFEST_NAME = "MANIFEST.json"

#: Training-only ``CrfConfig`` fields that models saved by earlier
#: versions still carry. They never affected tagging, so loading drops
#: them instead of refusing the model.
_RETIRED_CRF_FIELDS = frozenset({"train_batch_size", "estep_workers"})


def _write(directory: pathlib.Path, meta: dict, arrays: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    meta = dict(meta, format_version=_FORMAT_VERSION)
    (directory / "meta.json").write_text(
        json.dumps(meta, ensure_ascii=False, indent=1)
    )
    np.savez(directory / "weights.npz", **arrays)


def _read(directory: pathlib.Path) -> tuple[dict, dict]:
    directory = pathlib.Path(directory)
    meta_path = directory / "meta.json"
    weights_path = directory / "weights.npz"
    if not meta_path.exists() or not weights_path.exists():
        raise ModelError(f"no saved model at {directory}")
    meta = json.loads(meta_path.read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ModelError(
            f"unsupported model format {meta.get('format_version')!r}"
        )
    arrays = dict(np.load(weights_path, allow_pickle=False))
    return meta, arrays


# -- checksummed manifests ---------------------------------------------


def _file_digest(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _combined_digest(files: dict[str, str]) -> str:
    text = "".join(
        f"{name}:{files[name]}\n" for name in sorted(files)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_manifest(
    directory: str | pathlib.Path,
    extra_files: tuple[str, ...] = (),
) -> str:
    """Write a checksum manifest next to a saved model.

    Covers :data:`MODEL_FILES` plus ``extra_files`` with per-file
    SHA-256 digests and one combined digest — the identity a registry
    pins so a corrupted or half-written bundle can never be marked
    live.

    Returns:
        The combined digest.
    """
    directory = pathlib.Path(directory)
    files: dict[str, str] = {}
    for name in (*MODEL_FILES, *extra_files):
        path = directory / name
        if not path.exists():
            raise ModelError(f"cannot manifest missing file {path}")
        files[name] = _file_digest(path)
    digest = _combined_digest(files)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(
            {
                "format_version": _FORMAT_VERSION,
                "files": files,
                "digest": digest,
            },
            indent=1,
            sort_keys=True,
        )
    )
    return digest


def verify_manifest(directory: str | pathlib.Path) -> str:
    """Re-hash a saved model against its manifest.

    Raises:
        ModelError: when the manifest is missing/garbled or any
            covered file is missing or fails its checksum.

    Returns:
        The verified combined digest.
    """
    directory = pathlib.Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise ModelError(f"no manifest at {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())
        files = dict(manifest["files"])
        recorded = manifest["digest"]
    except (ValueError, KeyError, TypeError) as error:
        raise ModelError(
            f"garbled manifest at {manifest_path}: {error}"
        ) from error
    observed: dict[str, str] = {}
    for name, expected in files.items():
        path = directory / name
        if not path.exists():
            raise ModelError(f"manifested file missing: {path}")
        actual = _file_digest(path)
        if actual != expected:
            raise ModelError(
                f"checksum mismatch for {path}: "
                f"expected {expected[:12]}…, got {actual[:12]}…"
            )
        observed[name] = actual
    digest = _combined_digest(observed)
    if digest != recorded:
        raise ModelError(
            f"manifest digest mismatch at {directory}"
        )
    return digest


def model_kind(directory: str | pathlib.Path) -> str:
    """The saved model's kind (``"crf"`` or ``"lstm"``) without loading."""
    meta_path = pathlib.Path(directory) / "meta.json"
    if not meta_path.exists():
        raise ModelError(f"no saved model at {directory}")
    try:
        return str(json.loads(meta_path.read_text()).get("kind"))
    except ValueError as error:
        raise ModelError(
            f"garbled meta.json at {directory}: {error}"
        ) from error


def load_tagger(directory: str | pathlib.Path) -> CrfTagger | LstmTagger:
    """Load a saved tagger of either kind (dispatch on ``meta.json``)."""
    kind = model_kind(directory)
    if kind == "crf":
        return load_crf(directory)
    if kind == "lstm":
        return load_lstm(directory)
    raise ModelError(f"unknown saved model kind {kind!r} at {directory}")


# -- CRF ---------------------------------------------------------------


def save_crf(tagger: CrfTagger, directory: str | pathlib.Path) -> None:
    """Persist a trained CRF (feature index, labels, weights)."""
    if tagger._unary is None or tagger._indexer is None:
        raise NotFittedError("CrfTagger")
    features = [""] * len(tagger._indexer)
    for feature, column in tagger._indexer._index.items():
        features[column] = feature
    _write(
        pathlib.Path(directory),
        meta={
            "kind": "crf",
            "config": asdict(tagger.config),
            "labels": list(tagger.labels),
            "features": features,
        },
        arrays={
            "unary": tagger._unary,
            "transitions": tagger._transitions,
        },
    )


def load_crf(directory: str | pathlib.Path) -> CrfTagger:
    """Load a CRF saved by :func:`save_crf`."""
    meta, arrays = _read(pathlib.Path(directory))
    if meta.get("kind") != "crf":
        raise ModelError(f"not a CRF model: {meta.get('kind')!r}")
    config = {
        key: value
        for key, value in meta["config"].items()
        if key not in _RETIRED_CRF_FIELDS
    }
    tagger = CrfTagger(CrfConfig(**config))
    tagger._labels = list(meta["labels"])
    tagger._label_index = {
        label: index for index, label in enumerate(tagger._labels)
    }
    from .features import FeatureIndexer

    indexer = FeatureIndexer(min_count=tagger.config.min_feature_count)
    indexer._index = {
        feature: column
        for column, feature in enumerate(meta["features"])
    }
    # Re-intern the restored features into the fresh tagger's cache so
    # the interned decode path works post-load.
    indexer.attach_interner(tagger._cache.interner)
    tagger._indexer = indexer
    tagger._unary = arrays["unary"]
    tagger._transitions = arrays["transitions"]
    return tagger


# -- LSTM --------------------------------------------------------------


def _vocabulary_to_list(vocabulary: Vocabulary) -> list[str]:
    return [vocabulary.token_of(i) for i in range(len(vocabulary))]


def _vocabulary_from_list(tokens: list[str]) -> Vocabulary:
    return Vocabulary.from_ordered_tokens(tokens)


def save_lstm(tagger: LstmTagger, directory: str | pathlib.Path) -> None:
    """Persist a trained BiLSTM tagger."""
    if tagger._word_embedding is None:
        raise NotFittedError("LstmTagger")
    arrays: dict = {
        "word_embedding": tagger._word_embedding,
        "char_embedding": tagger._char_embedding,
    }
    for layer, params in tagger._params.items():
        for name, array in params.items():
            arrays[f"{layer}__{name}"] = array
    _write(
        pathlib.Path(directory),
        meta={
            "kind": "lstm",
            "config": asdict(tagger.config),
            "labels": list(tagger.labels),
            "words": _vocabulary_to_list(tagger._words),
            "chars": _vocabulary_to_list(tagger._chars),
        },
        arrays=arrays,
    )


def load_lstm(directory: str | pathlib.Path) -> LstmTagger:
    """Load a BiLSTM tagger saved by :func:`save_lstm`."""
    meta, arrays = _read(pathlib.Path(directory))
    if meta.get("kind") != "lstm":
        raise ModelError(f"not an LSTM model: {meta.get('kind')!r}")
    tagger = LstmTagger(LstmConfig(**meta["config"]))
    tagger._labels = list(meta["labels"])
    tagger._label_index = {
        label: index for index, label in enumerate(tagger._labels)
    }
    tagger._words = _vocabulary_from_list(meta["words"])
    tagger._chars = _vocabulary_from_list(meta["chars"])
    tagger._word_embedding = arrays.pop("word_embedding")
    tagger._char_embedding = arrays.pop("char_embedding")
    params: dict[str, dict[str, np.ndarray]] = {}
    for key, array in arrays.items():
        layer, _, name = key.partition("__")
        params.setdefault(layer, {})[name] = array
    tagger._params = params
    return tagger
