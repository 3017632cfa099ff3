import json
import random

import pytest

from hlmkit.errors import (
    EmptyCorpus,
    EmptyDocument,
    MissingScore,
    MissingSurprisal,
    ParseError,
    TooSmall,
    ValidationError,
)
from hlmkit.splitkit import (
    DifficultyScore,
    Providers,
    index_surprisals,
    load_corpus_jsonl,
    load_neural_scores,
    score_corpus,
    scores_from_jsonl,
    scores_to_jsonl,
    split_from_dict,
    tertile_split,
)
from hlmkit.surprisal import SurprisalSequence, import_surprisals, train_lm
from hlmkit.textstat import Document
from oracles import uid_sl_formula

MU = 3.8845


def seq(doc_id, *values):
    return SurprisalSequence(doc_id=doc_id, values=tuple(values), base="2")


class TestScoreCorpus:
    def test_flesch_example(self):
        scores = score_corpus([Document(id="d1", text="One two three.")], "flesch")
        assert scores[0].value == pytest.approx(119.19, abs=1e-6)
        assert scores[0].higher_is_harder is False

    def test_uid_var_at_language_mean_scores_zero(self):
        providers = Providers(surprisals={"d1": [seq("d1", MU, MU, MU)]})
        scores = score_corpus([Document(id="d1", text="x")], "uid_var", providers)
        assert scores[0].value == 0.0
        assert scores[0].higher_is_harder is True

    def test_neural_value_passes_through(self):
        providers = Providers(neural={"d1": DifficultyScore("d1", "neural", 2.0, True)})
        scores = score_corpus([Document(id="d1", text="x")], "neural", providers)
        assert scores[0].value == 2.0
        assert scores[0].higher_is_harder is True

    def test_neural_direction_read_from_file(self):
        providers = Providers(neural={"d1": DifficultyScore("d1", "neural", 2.0, False)})
        scores = score_corpus([Document(id="d1", text="x")], "neural", providers)
        assert scores[0].higher_is_harder is False

    def test_missing_neural_score(self):
        providers = Providers(neural={"other": DifficultyScore("other", "neural", 1.0, True)})
        with pytest.raises(MissingScore, match="d1"):
            score_corpus([Document(id="d1", text="x")], "neural", providers)

    def test_missing_surprisal_source(self):
        with pytest.raises(MissingSurprisal, match="d1"):
            score_corpus([Document(id="d1", text="x")], "uid_sl", Providers())

    def test_lm_provider(self):
        corpus = [Document(id="d1", text="a b a b"), Document(id="d2", text="b a")]
        model = train_lm(corpus, order=2)
        scores = score_corpus(corpus, "uid_sl", Providers(lm=model))
        assert len(scores) == 2
        assert all(s.value >= 0 for s in scores)

    def test_imported_sequences_concatenated(self):
        # two lines for one id act as sentences; default path concatenates
        providers = Providers(surprisals={"d1": [seq("d1", 1.0), seq("d1", 3.0)]})
        scores = score_corpus([Document(id="d1", text="x")], "uid_var", providers)
        merged = seq("d1", 1.0, 3.0)
        want = sum((v - MU) ** 2 for v in merged.values) / 2
        assert scores[0].value == pytest.approx(want)

    def test_per_sentence_averaging(self):
        providers = Providers(
            surprisals={"d1": [seq("d1", 1.0, 1.0, 1.0), seq("d1", 5.0)]},
            per_sentence=True,
        )
        scores = score_corpus([Document(id="d1", text="x")], "uid_sl", providers)
        want = (1.0 + 5.0 ** 1.25) / 2
        assert scores[0].value == pytest.approx(want)

    def test_mixed_bases_rejected(self):
        surprisals = {"d1": [SurprisalSequence("d1", (1.0,), "2"),
                             SurprisalSequence("d1", (1.0,), "e")]}
        for per_sentence in (False, True):
            providers = Providers(surprisals=surprisals, per_sentence=per_sentence)
            with pytest.raises(ValidationError, match="mixed surprisal bases for document 'd1'"):
                score_corpus([Document(id="d1", text="x")], "uid_sl", providers)

    def test_duplicate_ids_rejected(self):
        docs = [Document(id="d1", text="a"), Document(id="d1", text="b")]
        with pytest.raises(ValidationError, match="duplicate"):
            score_corpus(docs, "flesch")

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            score_corpus([], "flesch")

    def test_unknown_criterion(self):
        with pytest.raises(ValidationError):
            score_corpus([Document(id="d1", text="x")], "bogus")


class TestPerSentenceAverage:
    """``per_sentence`` scores a document as the mean of its sentences' scores."""

    @staticmethod
    def score(parts, criterion, per_sentence=True, **constants):
        providers = Providers(surprisals={"d": parts}, per_sentence=per_sentence, **constants)
        return score_corpus([Document(id="d", text="x")], criterion, providers)[0].value

    def test_mean_over_sentences(self):
        sentences = [seq("d", 1.0, 1.0), seq("d", 3.0)]
        assert self.score(sentences, "uid_var", mu_lang=1.0) == pytest.approx((0.0 + 4.0) / 2)

    def test_differs_from_concatenated(self):
        # two uneven sentences: averaging weights them equally,
        # concatenation weights per token
        parts = [seq("d", 1.0, 1.0, 1.0), seq("d", 5.0)]
        averaged = self.score(parts, "uid_sl", k=1.25)
        assert averaged != pytest.approx(self.score(parts, "uid_sl", per_sentence=False, k=1.25))

    def test_random_spot_check(self):
        rng = random.Random(11)
        for _ in range(50):
            parts = [
                seq("d", *[rng.uniform(0, 9) for _ in range(rng.randint(1, 6))])
                for _ in range(rng.randint(1, 4))
            ]
            want = sum(uid_sl_formula(p.values) for p in parts) / len(parts)
            assert self.score(parts, "uid_sl") == pytest.approx(want, abs=1e-12)


def make_scores(values, criterion="uid_sl", higher_is_harder=True):
    return [
        DifficultyScore(f"d{i}", criterion, float(v), higher_is_harder)
        for i, v in enumerate(values, start=1)
    ]


class TestTertileSplit:
    def test_nine_docs_equal_tertiles(self):
        split = tertile_split(make_scores(range(1, 10)))
        assert split.easy == ("d1", "d2", "d3")
        assert split.medium == ("d4", "d5", "d6")
        assert split.hard == ("d7", "d8", "d9")
        assert split.boundaries == (3.0, 6.0)

    def test_ten_docs_remainder_goes_to_easy(self):
        split = tertile_split(make_scores(range(1, 11)))
        assert (len(split.easy), len(split.medium), len(split.hard)) == (4, 3, 3)

    def test_eleven_docs_remainder_easy_then_medium(self):
        split = tertile_split(make_scores(range(1, 12)))
        assert (len(split.easy), len(split.medium), len(split.hard)) == (4, 4, 3)

    def test_direction_aware_for_flesch(self):
        # higher Flesch = easier, so the three highest scores land in easy
        split = tertile_split(make_scores(range(10, 100, 10), "flesch", False))
        assert split.easy == ("d9", "d8", "d7")
        assert split.hard == ("d3", "d2", "d1")

    def test_tie_break_is_doc_id(self):
        scores = [DifficultyScore(d, "uid_sl", 1.0, True) for d in ("z", "a", "m")]
        split = tertile_split(scores)
        assert split.easy + split.medium + split.hard == ("a", "m", "z")

    def test_input_order_does_not_matter(self):
        scores = make_scores([5, 3, 9, 1, 7, 2, 8, 4, 6])
        shuffled = list(scores)
        random.Random(1).shuffle(shuffled)
        assert tertile_split(scores) == tertile_split(shuffled)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            tertile_split(make_scores([1, 2]))

    def test_mixed_criteria_rejected(self):
        scores = make_scores([1, 2]) + make_scores([3], criterion="neural")
        with pytest.raises(ValidationError):
            tertile_split(scores)

    def test_partition_and_order_properties(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 60)
            values = [rng.choice([rng.uniform(-5, 5), rng.randint(0, 3)]) for _ in range(n)]
            harder = rng.random() < 0.5
            criterion = "uid_sl" if harder else "flesch"
            scores = make_scores(values, criterion, harder)
            split = tertile_split(scores)
            ids = split.easy + split.medium + split.hard
            assert sorted(ids) == sorted(s.doc_id for s in scores)
            sizes = (len(split.easy), len(split.medium), len(split.hard))
            assert sizes[0] >= sizes[1] >= sizes[2] >= sizes[0] - 1
            by_id = {s.doc_id: s.difficulty for s in scores}
            assert max(by_id[d] for d in split.easy) <= min(by_id[d] for d in split.hard)


class TestFileFormats:
    def test_corpus_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "Hello there."}\n{"id": "d2", "text": "Bye."}\n')
        docs = load_corpus_jsonl(path)
        assert [d.id for d in docs] == ["d1", "d2"]

    def test_corpus_duplicate_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n{"id": "d1", "text": "b"}\n')
        with pytest.raises(ValidationError, match="duplicate"):
            load_corpus_jsonl(path)

    def test_corpus_parse_error_has_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n{broken\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus_jsonl(path)

    def test_corpus_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(EmptyCorpus):
            load_corpus_jsonl(path)

    def test_neural_scores_loader(self, tmp_path):
        path = tmp_path / "n.jsonl"
        path.write_text('{"id": "d1", "score": 2.0, "higher_is_harder": true}\n')
        scores = load_neural_scores(path)
        assert scores["d1"] == DifficultyScore("d1", "neural", 2.0, True)

    def test_neural_scores_require_direction(self, tmp_path):
        path = tmp_path / "n.jsonl"
        path.write_text('{"id": "d1", "score": 2.0}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_neural_scores(path)

    # each JSON-lines reader, its valid line 1 and a line 2 it refuses, and the message naming
    # that line; a repeated id with blank text is refused for its text, which is checked first
    @pytest.mark.parametrize("read, rows, error, message", [
        (load_corpus_jsonl, [{"id": "d1", "text": "a"}, {"id": "d2", "text": " "}],
         EmptyDocument, "line 2: document 'd2' has no text"),
        (load_corpus_jsonl, [{"id": "d1", "text": "a"}, {"id": "d1", "text": "b"}],
         ValidationError, "line 2: duplicate document id 'd1'"),
        (load_corpus_jsonl, [{"id": "d1", "text": "a"}, {"id": "d1", "text": ""}],
         EmptyDocument, "line 2: document 'd1' has no text"),
        (load_neural_scores, [{"id": "d1", "score": 1.0, "higher_is_harder": True}] * 2,
         ValidationError, "line 2: duplicate id 'd1'"),
        (scores_from_jsonl, [dict(id=d, criterion="flesch", value=1.0, higher_is_harder=h)
                             for d, h in (("d1", False), ("d2", True))],
         ValidationError, "line 2: criterion 'flesch' must have higher_is_harder=False"),
        (import_surprisals, [{"id": "d1", "surprisals": v, "base": "2"} for v in ([1.0], [])],
         EmptyDocument, "line 2: surprisal sequence for 'd1' is empty"),
    ], ids=["corpus-blank-text", "corpus-duplicate-id", "corpus-duplicate-id-blank-text",
            "neural-duplicate-id", "scores-flesch-direction", "surprisals-empty"])
    def test_reader_names_the_refused_line(self, tmp_path, read, rows, error, message):
        path = tmp_path / "in.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(error) as caught:
            read(path)
        assert str(caught.value) == message

    def test_scores_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        scores = make_scores([1.5, 2.5, 3.5])
        scores_to_jsonl(scores, path)
        assert scores_from_jsonl(path) == scores

    def test_split_dict_round_trip(self):
        split = tertile_split(make_scores(range(1, 10)))
        data = json.loads(json.dumps(split._asdict()))
        assert split_from_dict(data) == split

    def test_split_lists_each_id_once(self):
        data = dict(tertile_split(make_scores(range(1, 10)))._asdict(), hard=["d1", "d9"])
        with pytest.raises(ValidationError, match=r"more than once: \['d1'\]"):
            split_from_dict(data)

    def test_index_surprisals_groups_by_id(self):
        seqs = [seq("a", 1.0), seq("b", 2.0), seq("a", 3.0)]
        grouped = index_surprisals(seqs)
        assert [s.values[0] for s in grouped["a"]] == [1.0, 3.0]


class TestDifficultyScore:
    def test_flesch_flag_enforced(self):
        with pytest.raises(ValidationError):
            DifficultyScore("d1", "flesch", 50.0, True)

    def test_uid_flag_enforced(self):
        with pytest.raises(ValidationError):
            DifficultyScore("d1", "uid_sl", 1.0, False)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_non_finite_value_refused(self, value):
        with pytest.raises(ValidationError) as refused:
            DifficultyScore("d1", "neural", value, True)
        assert str(refused.value) == "non-finite score for document 'd1'"

    def test_neural_flag_free(self):
        DifficultyScore("d1", "neural", 1.0, False)
        DifficultyScore("d1", "neural", 1.0, True)

    def test_difficulty_negates_flesch(self):
        s = DifficultyScore("d1", "flesch", 50.0, False)
        assert s.difficulty == -50.0
