"""Seeded long-video items: fixtures, dataset rows and the agent policies.

The seed picks the topic, the question wording, the transcript text and
the window that holds the evidence. Sizes never depend on it: every item
is `duration` seconds at 1 fps with one transcript line every 10 s, the
evidence always lies in the second half of the video inside one
find_when window, and each kind always takes the same path through the
tools. So model calls and frames per item do not change with the seed and
only prompt characters move a little with the wording.

Strategy B is the program's own direct call, which passes the question
verbatim. The agent strategies search with the item's key phrase (C) or
look only at the first half after a one-minute intro (A), so A's windows
never line up with the whole-video windows of B and C. Two strategies
then send the same request only where they make the same whole-video
call, as ROADMAP item 3c describes: A and C both ask asr_understanding
the question on the ASR item, 8 of about 650 requests per cycle.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from fakemodel import first_range, mmss, words

FIND_WHEN_WINDOW = 100  # ToolConfig.find_when_window
TRANSCRIPT_STEP = 10  # seconds between transcript lines
INTRO = 60  # seconds strategy A skips; off the 64- and 100-frame window grids

# transcript words have one length per slot, so every background line is
# as long as the next and the number of ASR chunks never depends on the seed
_ADJ = "quiet busy dim bright empty crowded misty sunny".split()
_PLACE = "hallway courtyard street stage field kitchen lobby garden".split()
_THING = "chairs crates clouds tables ladder bottle carpet pillow".split()
_NAME = "alex sami joan kira leon maxi".split()
_VERB = "stacks paints counts cleans checks scrubs".split()
_ADV = "quickly briefly happily quietly bravely eagerly".split()

_VISUAL = {
    "nouns": "banner kite umbrella bicycle lantern scarf balloon tent".split(),
    "spots": "gate fountain pier balcony".split(),
    "options": "crimson teal amber violet ivory olive maroon cobalt".split(),
    "questions": (
        "What color is the {noun} by the {spot}?",
        "Which color does the {noun} by the {spot} have?",
        "By the {spot}, what color is the {noun}?",
    ),
}
_ASR = {
    "subjects": "meeting concert delivery workshop lecture market".split(),
    "options": "monday tuesday wednesday thursday friday saturday".split(),
    "questions": (
        "On which day is the {subject} planned?",
        "According to the announcement, which day is the {subject} planned for?",
        "Which day did the announcer give for the planned {subject}?",
    ),
}
_TEMPORAL = {
    "nouns": "ferry drummer goalkeeper crane parade tractor".split(),
    "verbs": "arrives leaves turns stops starts".split(),
    "questions": (
        "When does the {noun} {verb}?",
        "At what time does the {noun} {verb}?",
        "When is the {noun} seen as it {verb}?",
    ),
}


def _fenced(*lines: str) -> str:
    return "```\n" + "\n".join(lines) + "\n```"


def _quoted_list(values) -> str:
    return "[" + ", ".join(f'"{v}"' for v in values) + "]"


@dataclass
class ItemSpec:
    task_id: str
    kind: str  # visual | asr | temporal
    question: str
    options: tuple[str, ...] | None
    truth: object  # 1-based option index, or (start, end) seconds
    key: str  # the find_when query of strategies A and C
    half: int  # strategy A trims to [INTRO, half]
    fixture: dict

    def row(self) -> dict:
        row = {"id": self.task_id, "video": f"{self.task_id}.json", "question": self.question}
        if self.options:
            row["options"] = list(self.options)
            row["answer"] = self.truth
        else:
            start, end = self.truth
            row["answer"] = [[mmss(start), mmss(end)]]
        if self.kind == "asr":
            row["allow_asr"] = True
        return row

    def policy(self, label: str, turn: int, prompt: str) -> str:
        """The agent's reply for turn `turn` of strategy `label`."""
        q = f'"{self.question}"'
        opts = f"answer_options={_quoted_list(self.options)}" if self.options else ""
        trim = f'seg = get_segment("{mmss(INTRO)}", "{mmss(self.half)}")'
        finish_ans = _fenced("finish(final_answer=ans)")
        if self.kind == "visual":
            turns = {
                "A": [
                    _fenced(trim, f"ans = retrieval_qa({q}, {opts}, video_segment=seg)"),
                    finish_ans,
                ],
                "C": [
                    _fenced(f'hits = find_when("{self.key}")'),
                    self._read_range(
                        prompt, f"ans = retrieval_qa({q}, {opts}, video_segment=seg)"
                    ),
                    finish_ans,
                ],
            }
        elif self.kind == "asr":
            ask = _fenced(f"ans = asr_understanding({q}, {opts})")
            turns = {
                "A": [ask, finish_ans],
                "C": [_fenced(f'hits = find_when("{self.key}")'), ask, finish_ans],
            }
        else:
            rng = first_range(prompt)
            answer = f'["{rng[0]}", "{rng[1]}"]' if rng else '["00:00", "00:30"]'
            turns = {
                "A": [
                    _fenced(trim, f'hits = find_when("{self.key}", video_segment=seg)'),
                    _fenced("finish(final_answer='Final Answer: [\"00:00\", \"00:30\"]')"),
                ],
                "C": [
                    _fenced(f'hits = find_when("{self.key}")'),
                    self._read_range(
                        prompt,
                        f'check = retrieval_qa("Does the {self.key} in these frames?", '
                        "video_segment=seg)",
                    ),
                    _fenced(f"finish(final_answer='Final Answer: {answer}')"),
                ],
            }
        script = turns.get(label, [])
        if turn < len(script):
            return script[turn]
        return _fenced("finish(final_answer='Final Answer: (1)')")

    @staticmethod
    def _read_range(prompt: str, then: str) -> str:
        rng = first_range(prompt)
        if rng is None:
            return _fenced("finish(final_answer='Final Answer: (1)')")
        return _fenced(f'seg = get_segment("{rng[0]}", "{rng[1]}")', then)


def _background(rng: random.Random, duration: int):
    frames = [
        {"t": mmss(t), "caption": f"{rng.choice(_ADJ)} {rng.choice(_PLACE)} with {rng.choice(_THING)}"}
        for t in range(duration)
    ]
    asr = [
        {
            "t": mmss(t),
            "text": f"{rng.choice(_NAME)} {rng.choice(_VERB)} {rng.choice(_THING)} {rng.choice(_ADV)}",
        }
        for t in range(0, duration, TRANSCRIPT_STEP)
    ]
    return frames, asr


def _evidence_span(rng: random.Random, duration: int) -> tuple[int, int]:
    """A 20-40 s span inside one find_when window of the second half."""
    first = (duration // 2) // FIND_WHEN_WINDOW + 1
    window = rng.randrange(first, duration // FIND_WHEN_WINDOW)
    length = rng.randint(20, 40)
    start = window * FIND_WHEN_WINDOW + rng.randrange(FIND_WHEN_WINDOW - length)
    return start, start + length


def _fixture(duration, frames, asr) -> dict:
    return {"duration": mmss(duration), "fps": 1, "frames": frames, "asr": asr}


def generate(seed: int, duration: int) -> list[ItemSpec]:
    """One item of each kind: visual MCQ, ASR MCQ and temporal range."""
    rng = random.Random(seed)
    half = duration // 2
    specs = []

    frames, asr = _background(rng, duration)
    noun, spot = rng.choice(_VISUAL["nouns"]), rng.choice(_VISUAL["spots"])
    options = tuple(rng.sample(_VISUAL["options"], 4))
    truth = rng.randint(2, 4)
    start, end = _evidence_span(rng, duration)
    for t in range(start, end + 1):
        frames[t]["caption"] = f"{options[truth - 1]} {noun} by the {spot}"
    question = rng.choice(_VISUAL["questions"]).format(noun=noun, spot=spot)
    specs.append(
        ItemSpec("visual", "visual", question, options, truth, noun, half,
                 _fixture(duration, frames, asr))
    )

    frames, asr = _background(rng, duration)
    subject = rng.choice(_ASR["subjects"])
    options = tuple(rng.sample(_ASR["options"], 4))
    truth = rng.randint(2, 4)
    slot = rng.randrange(len(asr) // 2, len(asr))
    asr[slot]["text"] = f"the {subject} is planned for {options[truth - 1]}"
    question = rng.choice(_ASR["questions"]).format(subject=subject)
    specs.append(
        ItemSpec("asr", "asr", question, options, truth, subject, half,
                 _fixture(duration, frames, asr))
    )

    frames, asr = _background(rng, duration)
    noun, verb = rng.choice(_TEMPORAL["nouns"]), rng.choice(_TEMPORAL["verbs"])
    start, end = _evidence_span(rng, duration)
    for t in range(start, end + 1):
        frames[t]["caption"] = f"the {noun} {verb}"
    question = rng.choice(_TEMPORAL["questions"]).format(noun=noun, verb=verb)
    specs.append(
        ItemSpec("temporal", "temporal", question, None, (start, end), f"{noun} {verb}",
                 half, _fixture(duration, frames, asr))
    )
    _check_vocabulary(specs)
    return specs


def _check_vocabulary(specs) -> None:
    """Background words must never match a question, or answers get noisy."""
    background = set(_ADJ + _PLACE + _THING + _NAME + _VERB + _ADV + ["with"])
    for spec in specs:
        clash = background & words(spec.question)
        if clash:
            raise ValueError(f"{spec.task_id}: question shares {sorted(clash)}")


def write_items(specs, directory: str) -> str:
    """Write one fixture per item and a dataset; returns the dataset path."""
    os.makedirs(directory, exist_ok=True)
    for spec in specs:
        with open(os.path.join(directory, f"{spec.task_id}.json"), "w") as fh:
            json.dump(spec.fixture, fh)
    path = os.path.join(directory, "items.jsonl")
    with open(path, "w") as fh:
        for spec in specs:
            fh.write(json.dumps(spec.row()) + "\n")
    return path
