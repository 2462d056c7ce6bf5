"""Synthetic evaluation suite where exactly one strategy can win each task.

Each case packages a fixture timeline, a dataset row, scripted episode turns
for every strategy label that runs, and a scripted critic verdict. The
fixtures are constructed so that:

- "A" cases hide the true fact behind a decoy that poisons whole-video
  retrieval, and plant an early distractor event that poisons policies
  trusting coarse localization.
- "B" cases put the true fact first so a direct whole-video query wins,
  while the trimming and localization policies look in the wrong place.
- "C" cases need localization (or verification) to find evidence late in
  the video, which the other policies miss.

MCQ truths are never option 1; every losing script guesses (1).
"""

from dataclasses import dataclass, field
import json
import os

from scripted_model import ScriptedModel

MM = lambda t: f"{t // 60:02d}:{t % 60:02d}"

DURATION = 600
NOT_VISIBLE = "not visible in this segment"


@dataclass
class TaskCase:
    task_id: str
    profile_name: str
    question: str
    options: tuple | None
    truth: object  # int option index, or list[(start, end)]
    allow_asr: bool
    fixture: dict
    scripts: dict = field(default_factory=dict)
    winner: str = ""
    agent_correct: bool = False  # does the all-module episode succeed alone


def base_fixture(events=(), asr=(), qa_facts=()):
    return {
        "duration": MM(DURATION),
        "fps": 1,
        "frames": [{"t": MM(t), "caption": f"scene at {MM(t)}"} for t in range(0, DURATION, 25)],
        "events": list(events),
        "asr": list(asr),
        "qa_facts": list(qa_facts),
    }


def event(start, end, label, justification):
    return {"start": MM(start), "end": MM(end), "label": label, "justification": justification}


def fact(start, end, keywords, answer):
    return {"start": MM(start), "end": MM(end), "keywords": list(keywords), "answer": answer}


def fenced(*lines):
    return "```\n" + "\n".join(lines) + "\n```"


def mcq_single_script(question):
    return [
        fenced(
            "seg = get_segment('00:00', '00:15')",
            f'ans = retrieval_qa("{question}", video_segment=seg)',
            "finish(final_answer=f'From the opening: {ans}. Final Answer: (1)')",
        )
    ]


def temporal_single_script(query):
    return [
        fenced(
            "seg = get_segment('00:00', '00:15')",
            f'r = find_when("{query}", video_segment=seg)',
            "finish(final_answer=f'{r} Final Answer: [\"00:00\", \"00:15\"]')",
        )
    ]


def mcq_self_scripts(task_id, truth):
    return {
        f"{task_id}/self": [fenced(f"finish(final_answer='Final Answer: ({truth})')")],
        f"{task_id}/self/confidence": ["3 confident"],
    }


def temporal_self_scripts(task_id, truth):
    (start, end) = truth[0]
    final = f"Final Answer: [\"{MM(start)}\", \"{MM(end)}\"]"
    return {
        f"{task_id}/self": [fenced(f"finish(final_answer='{final}')")],
        f"{task_id}/self/confidence": ["3 confident"],
    }


def critic_script(task_id, critique, winners):
    text = f"Critique:\n{critique}\n\nWinning Strategies:\n{', '.join(winners)}\n"
    return {f"{task_id}/critic": [text]}


# visual multiple choice, decoy-first: only trim-then-retrieve succeeds

VISUAL_A_THEMES = [
    {
        "id": "v01",
        "question": "What color is the banner carried at the finish line?",
        "options": ("white", "red", "blue"),
        "noun": "banner",
        "decoy": "A white banner hangs over the starting area. Final Answer: (1)",
        "true_kw": ("banner", "finish"),
        "true": "The banner carried across the finish line is red. Final Answer: (2)",
        "early_label": "a banner above the starting area",
        "late_label": "the banner at the finish line",
    },
    {
        "id": "v02",
        "question": "What does the woman holding the umbrella buy at the market stall?",
        "options": ("flowers", "apples", "bread"),
        "noun": "umbrella",
        "decoy": "A woman opens her umbrella by the entrance. Final Answer: (1)",
        "true_kw": ("umbrella", "market"),
        "true": "She buys a bag of apples at the market stall. Final Answer: (2)",
        "early_label": "a woman with an umbrella enters",
        "late_label": "the umbrella woman pays at the market stall",
    },
    {
        "id": "v03",
        "question": "Which song does the guitarist play during the encore?",
        "options": ("a ballad", "the opening theme", "a new single"),
        "noun": "guitarist",
        "decoy": "The guitarist tunes quietly backstage. Final Answer: (1)",
        "true_kw": ("guitarist", "encore"),
        "true": "For the encore the guitarist plays the opening theme. Final Answer: (2)",
        "early_label": "the guitarist tunes backstage",
        "late_label": "the guitarist returns for the encore",
    },
    {
        "id": "v04",
        "question": "What trick does the dog perform at the end of the show?",
        "options": ("rolls over", "plays dead", "jumps a hoop"),
        "noun": "dog",
        "decoy": "The dog sniffs around the ring before the show. Final Answer: (1)",
        "true_kw": ("dog", "show"),
        "true": "At the end of the show the dog plays dead. Final Answer: (2)",
        "early_label": "the dog sniffs around the ring",
        "late_label": "the dog performs as the show closes",
    },
]


def visual_a_case(theme):
    q = theme["question"]
    fixture = base_fixture(
        events=[
            event(10, 40, theme["early_label"], f"{theme['noun']} visible early"),
            event(400, 430, theme["late_label"], f"{theme['noun']} visible late"),
        ],
        qa_facts=[
            fact(10, 40, (theme["noun"],), theme["decoy"]),
            fact(400, 430, theme["true_kw"], theme["true"]),
        ],
    )
    tid = theme["id"]
    scripts = {
        f"{tid}/A": [
            "The question concerns the closing scene; trim there first.\n"
            + fenced("seg = get_segment('06:30', '07:20')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=ans)"),
        ],
        f"{tid}/C": [
            fenced(f'hits = find_when("{theme["noun"]}")'),
            fenced("seg = get_segment('00:10', '00:40')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=f'The early scene answers it: {ans}')"),
        ],
        f"{tid}/single": mcq_single_script(q),
        **mcq_self_scripts(tid, 2),
        **critic_script(
            tid,
            "Strategy B and Strategy C both read the early scene, which shows setup "
            "rather than the moment asked about. Strategy A trimmed to the closing "
            "window and retrieved a grounded answer there.",
            ["A"],
        ),
    }
    return TaskCase(tid, "visual_mcq", q, theme["options"], 2, False, fixture, scripts, "A", False)


VISUAL_B_THEMES = [
    {
        "id": "v05",
        "question": "What is engraved on the trophy presented to the winner?",
        "options": ("a date", "a crest", "the winner's name"),
        "noun": "trophy",
        "true": "The trophy is engraved with the winner's name. Final Answer: (3)",
        "early_label": "a trophy case in the lobby",
    },
    {
        "id": "v06",
        "question": "What is shown in the painting revealed on stage?",
        "options": ("a storm", "a harbor", "a mountain lake"),
        "noun": "painting",
        "true": "The painting shows a mountain lake at dawn. Final Answer: (3)",
        "early_label": "a covered painting waits on stage",
    },
    {
        "id": "v07",
        "question": "What flavor is the cake served at the reception?",
        "options": ("vanilla", "chocolate", "lemon"),
        "noun": "cake",
        "true": "The cake served at the reception is lemon. Final Answer: (3)",
        "early_label": "a cake box arrives at the kitchen",
    },
    {
        "id": "v08",
        "question": "What number is painted on the racing car's door?",
        "options": ("12", "7", "42"),
        "noun": "car",
        "true": "The racing car carries number 42 on its door. Final Answer: (3)",
        "early_label": "a car is rolled out of the garage",
    },
]


def visual_b_case(theme):
    q = theme["question"]
    fixture = base_fixture(
        events=[event(20, 50, theme["early_label"], f"{theme['noun']} visible early")],
        qa_facts=[fact(300, 330, (theme["noun"],), theme["true"])],
    )
    tid = theme["id"]
    scripts = {
        f"{tid}/A": [
            fenced("seg = get_segment('00:00', '02:00')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=f'{ans}. My best guess is Final Answer: (1)')"),
        ],
        f"{tid}/C": [
            fenced(f'hits = find_when("{theme["noun"]}")'),
            fenced("seg = get_segment('00:20', '00:50')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=f'{ans}. My best guess is Final Answer: (1)')"),
        ],
        f"{tid}/single": mcq_single_script(q),
        **mcq_self_scripts(tid, 3),
        **critic_script(
            tid,
            "Strategy A and Strategy C trimmed to early windows and saw nothing "
            "relevant, then guessed. Strategy B queried the whole video and "
            "retrieved the evidence directly.",
            ["B"],
        ),
    }
    return TaskCase(tid, "visual_mcq", q, theme["options"], 3, False, fixture, scripts, "B", False)


VISUAL_C_THEMES = [
    {
        "id": "v09",
        "question": "What does the dog catch in the park?",
        "options": ("a ball", "a frisbee", "a stick"),
        "query": "dog frisbee",
        "decoy": "The dog is asleep indoors. Final Answer: (1)",
        "true": "The dog catches a frisbee in the park. Final Answer: (2)",
        "late_label": "the dog catches a frisbee",
    },
    {
        "id": "v10",
        "question": "What color are the balloons released over the crowd?",
        "options": ("white", "gold", "red"),
        "query": "balloons released",
        "decoy": "Deflated balloons sit in a box. Final Answer: (1)",
        "true": "Gold balloons are released over the crowd. Final Answer: (2)",
        "late_label": "balloons released over the crowd",
    },
    {
        "id": "v11",
        "question": "Where are the fireworks launched from during the finale?",
        "options": ("the rooftop", "the barge", "the beach"),
        "query": "fireworks finale",
        "decoy": "Fireworks crates are stacked by the dock. Final Answer: (1)",
        "true": "The finale fireworks are launched from the barge. Final Answer: (2)",
        "late_label": "the fireworks finale begins",
    },
]


def visual_c_case(theme):
    q = theme["question"]
    noun = theme["query"].split()[0]
    fixture = base_fixture(
        events=[event(450, 480, theme["late_label"], "the moment in question")],
        qa_facts=[
            fact(50, 80, (noun,), theme["decoy"]),
            fact(450, 480, (noun,), theme["true"]),
        ],
    )
    tid = theme["id"]
    scripts = {
        f"{tid}/A": [
            fenced("seg = get_segment('01:40', '03:20')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=f'{ans}. My best guess is Final Answer: (1)')"),
        ],
        f"{tid}/C": [
            fenced(f'hits = find_when("{theme["query"]}")'),
            fenced("seg = get_segment('07:30', '08:00')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=ans)"),
        ],
        f"{tid}/single": mcq_single_script(q),
        **mcq_self_scripts(tid, 2),
        **critic_script(
            tid,
            "Strategy B surfaced an unrelated early fact and Strategy A trimmed to "
            "a quiet stretch. Strategy C localized the moment first and verified "
            "the answer inside it.",
            ["C"],
        ),
    }
    return TaskCase(tid, "visual_mcq", q, theme["options"], 2, False, fixture, scripts, "C", True)


# speech tasks: the answer is spoken, or plainly visible

ASR_A_THEMES = [
    {
        "id": "a01",
        "question": "What does the coach tell the team to focus on?",
        "options": ("speed", "defense", "set pieces"),
        "noun": "coach",
        "decoy": "The coach points at the scoreboard. Final Answer: (1)",
        "true_kw": ("coach", "focus"),
        "true": "The coach says to focus on defense. Final Answer: (2)",
        "line": "focus on defense this quarter",
        "early_label": "the coach gestures at the bench",
    },
    {
        "id": "a02",
        "question": "What chapter does the teacher tell the class to read tonight?",
        "options": ("chapter five", "chapter twelve", "chapter one"),
        "noun": "teacher",
        "decoy": "The teacher writes a date on the board. Final Answer: (1)",
        "true_kw": ("teacher", "read"),
        "true": "The teacher assigns chapter twelve to read tonight. Final Answer: (2)",
        "line": "please read chapter twelve tonight",
        "early_label": "the teacher writes on the board",
    },
]


def asr_a_case(theme):
    q = theme["question"]
    fixture = base_fixture(
        events=[event(25, 55, theme["early_label"], f"{theme['noun']} seen early")],
        asr=[
            {"t": MM(200), "text": theme["line"]},
            {"t": MM(520), "text": "thanks everyone, see you next time"},
        ],
        qa_facts=[
            fact(30, 60, (theme["noun"],), theme["decoy"]),
            fact(190, 210, theme["true_kw"], theme["true"]),
        ],
    )
    tid = theme["id"]
    scripts = {
        f"{tid}/A": [
            fenced(f'spoken = asr_understanding("{q}")'),
            fenced("finish(final_answer=spoken)"),
        ],
        f"{tid}/C": [
            fenced(f'hits = find_when("{theme["noun"]}")'),
            fenced("seg = get_segment('00:25', '00:55')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=f'The early scene answers it: {ans}')"),
        ],
        f"{tid}/single": mcq_single_script(q),
        **mcq_self_scripts(tid, 2),
        **critic_script(
            tid,
            "The instruction is only spoken, never shown. Strategy A consulted the "
            "transcript and quoted it. Strategy B and Strategy C chased the early "
            "visual of the speaker and answered from setup footage.",
            ["A"],
        ),
    }
    return TaskCase(tid, "asr_mcq", q, theme["options"], 2, True, fixture, scripts, "A", False)


ASR_B_THEMES = [
    {
        "id": "a03",
        "question": "What number is on the captain's jersey?",
        "options": ("10", "23", "7"),
        "noun": "jersey",
        "true": "The captain's jersey shows number 7. Final Answer: (3)",
        "early_label": "a jersey hangs in the locker room",
    },
    {
        "id": "a04",
        "question": "Which gate is announced on the departure board for the flight?",
        "options": ("A2", "C9", "B6"),
        "noun": "gate",
        "true": "The departure board lists gate B6 for the flight. Final Answer: (3)",
        "early_label": "travelers pass a gate sign",
    },
]


def asr_b_case(theme):
    q = theme["question"]
    fixture = base_fixture(
        events=[event(40, 70, theme["early_label"], f"{theme['noun']} glimpsed early")],
        asr=[{"t": MM(500), "text": "crowd noise and cheering"}],
        qa_facts=[fact(100, 130, (theme["noun"],), theme["true"])],
    )
    tid = theme["id"]
    scripts = {
        f"{tid}/A": [
            fenced(f'spoken = asr_understanding("{q}")'),
            fenced("finish(final_answer=f'{spoken}. My best guess is Final Answer: (1)')"),
        ],
        f"{tid}/C": [
            fenced(f'hits = find_when("{theme["noun"]}")'),
            fenced("seg = get_segment('00:40', '01:10')"),
            fenced(f'ans = retrieval_qa("{q}", video_segment=seg)'),
            fenced("finish(final_answer=f'{ans}. My best guess is Final Answer: (1)')"),
        ],
        f"{tid}/single": mcq_single_script(q),
        **mcq_self_scripts(tid, 3),
        **critic_script(
            tid,
            "Nothing in the transcript answers this; Strategy A ended up guessing. "
            "Strategy C trimmed to an early glimpse and saw nothing. Strategy B "
            "read the answer straight off the video.",
            ["B"],
        ),
    }
    return TaskCase(tid, "asr_mcq", q, theme["options"], 3, True, fixture, scripts, "B", False)


# temporal localization: distractor-first event lists

TEMPORAL_A_THEMES = [
    {
        "id": "r01",
        "question": "When does the chef plate the dessert?",
        "query": "chef plates dessert",
        "early_label": "the chef plates a salad",
        "late_label": "the chef plates the dessert",
    },
    {
        "id": "r02",
        "question": "When is the winning goal scored?",
        "query": "goal scored",
        "early_label": "a practice goal before kickoff",
        "late_label": "the winning goal is scored",
    },
    {
        "id": "r03",
        "question": "When does the parade cross the stone bridge?",
        "query": "parade bridge",
        "early_label": "the parade assembles near the bridge",
        "late_label": "the parade crosses the stone bridge",
    },
]

TEMPORAL_A_TRUTH = [(420, 450)]


def temporal_a_case(theme):
    fixture = base_fixture(
        events=[
            event(30, 60, theme["early_label"], "an early look-alike moment"),
            event(420, 450, theme["late_label"], "the asked-about moment"),
        ],
    )
    tid = theme["id"]
    a_script = [
        fenced("seg = get_segment('06:00', '08:00')"),
        fenced(f'hits = find_when("{theme["query"]}", video_segment=seg)'),
        fenced("finish(final_answer='Final Answer: [\"07:00\", \"07:30\"]')"),
    ]
    c_script = [
        fenced(f'hits = find_when("{theme["query"]}")'),
        fenced("finish(final_answer='Final Answer: [\"00:30\", \"01:00\"]')"),
    ]
    scripts = {
        f"{tid}/A": a_script,
        f"{tid}/C": c_script,
        f"{tid}/single": temporal_single_script(theme["query"]),
        **temporal_self_scripts(tid, TEMPORAL_A_TRUTH),
        **critic_script(
            tid,
            "The whole-video localization in Strategy B and Strategy C leads with "
            "an early look-alike. Strategy A restricted the search window first "
            "and isolated the asked-about moment.",
            ["A"],
        ),
        **temporal_subset_scripts(tid, theme["query"], a_script, c_script),
    }
    return TaskCase(
        tid, "temporal_range", theme["question"], None, TEMPORAL_A_TRUTH, False,
        fixture, scripts, "A", False,
    )


TEMPORAL_C_THEMES = [
    {
        "id": "r04",
        "question": "When does the team celebrate the win on the pitch?",
        "query": "team celebrates",
        "verify_q": "Is the team celebrating the win at this point?",
        "verify_kw": ("celebrating",),
        "verify_ans": "Yes, the players are celebrating on the pitch.",
        "early_label": "the team celebrates a warmup drill",
        "late_label": "the team celebrates the win",
    },
    {
        "id": "r05",
        "question": "When is the trophy lifted on the podium?",
        "query": "trophy lifted",
        "verify_q": "Is the trophy being lifted at this point?",
        "verify_kw": ("trophy",),
        "verify_ans": "Yes, the trophy is raised on the podium.",
        "early_label": "a replica trophy lifted by a fan",
        "late_label": "the trophy lifted on the podium",
    },
]

TEMPORAL_C_TRUTH = [(480, 510)]


def temporal_c_case(theme):
    fixture = base_fixture(
        events=[
            event(40, 70, theme["early_label"], "an early look-alike moment"),
            event(480, 510, theme["late_label"], "the asked-about moment"),
        ],
        qa_facts=[fact(480, 510, theme["verify_kw"], theme["verify_ans"])],
    )
    tid = theme["id"]
    a_script = [
        fenced("seg = get_segment('00:00', '02:00')"),
        fenced(f'hits = find_when("{theme["query"]}", video_segment=seg)'),
        fenced("finish(final_answer='Final Answer: [\"00:40\", \"01:10\"]')"),
    ]
    c_script = [
        fenced(f'hits = find_when("{theme["query"]}")'),
        fenced(
            "seg1 = get_segment('00:40', '01:10')",
            f'check1 = retrieval_qa("{theme["verify_q"]}", video_segment=seg1)',
        ),
        fenced(
            "seg2 = get_segment('08:00', '08:30')",
            f'check2 = retrieval_qa("{theme["verify_q"]}", video_segment=seg2)',
        ),
        fenced(
            f"if check1 == '{NOT_VISIBLE}':",
            "    finish(final_answer='Final Answer: [\"08:00\", \"08:30\"]')",
        ),
    ]
    scripts = {
        f"{tid}/A": a_script,
        f"{tid}/C": c_script,
        f"{tid}/single": temporal_single_script(theme["query"]),
        **temporal_self_scripts(tid, TEMPORAL_C_TRUTH),
        **critic_script(
            tid,
            "Both candidate ranges look plausible; only Strategy C checked each "
            "one and kept the range whose content matched the question. Strategy "
            "A trimmed to the early look-alike and Strategy B returned raw "
            "candidates without deciding.",
            ["C"],
        ),
        **temporal_subset_scripts(tid, theme["query"], a_script, c_script),
    }
    return TaskCase(
        tid, "temporal_range", theme["question"], None, TEMPORAL_C_TRUTH, False,
        fixture, scripts, "C", True,
    )


# scripted policies for the ablation sweep over the 3-module temporal pool;
# labels follow enumeration order: size, then pool order
# (get_segment, retrieval_qa, find_when)

def temporal_subset_scripts(tid, query, a_script, c_script):
    guess = [fenced("finish(final_answer='Final Answer: [\"00:00\", \"00:10\"]')")]
    trust_first = [
        fenced(f'hits = find_when("{query}")'),
        fenced("finish(final_answer='Final Answer: [\"00:30\", \"01:00\"]')"),
    ]
    return {
        f"{tid}/S1": list(guess),                       # retrieval_qa only
        f"{tid}/S2": list(trust_first),                 # find_when only
        f"{tid}/S3": list(guess),                       # get_segment + retrieval_qa
        f"{tid}/S4": [t for t in a_script],             # get_segment + find_when
        f"{tid}/S5": list(trust_first),                 # retrieval_qa + find_when
        f"{tid}/S6": [t for t in c_script],             # full pool
    }


def build_cases():
    cases = []
    cases += [visual_a_case(t) for t in VISUAL_A_THEMES]
    cases += [visual_b_case(t) for t in VISUAL_B_THEMES]
    cases += [visual_c_case(t) for t in VISUAL_C_THEMES]
    cases += [asr_a_case(t) for t in ASR_A_THEMES]
    cases += [asr_b_case(t) for t in ASR_B_THEMES]
    cases += [temporal_a_case(t) for t in TEMPORAL_A_THEMES]
    cases += [temporal_c_case(t) for t in TEMPORAL_C_THEMES]
    return cases


def dataset_row(case):
    row = {
        "id": case.task_id,
        "video": f"{case.task_id}.json",
        "question": case.question,
        "answer": case.truth
        if isinstance(case.truth, int)
        else [[MM(s), MM(e)] for s, e in case.truth],
    }
    if case.options is not None:
        row["options"] = list(case.options)
    if case.allow_asr:
        row["allow_asr"] = True
    return row


def write_suite(directory, cases=None):
    """Materialize fixtures and datasets; returns dataset paths by group."""
    cases = cases or build_cases()
    os.makedirs(directory, exist_ok=True)
    groups = {"all": cases}
    groups["visual"] = [c for c in cases if c.profile_name == "visual_mcq"]
    groups["asr"] = [c for c in cases if c.profile_name == "asr_mcq"]
    groups["temporal"] = [c for c in cases if c.profile_name == "temporal_range"]
    for case in cases:
        with open(os.path.join(directory, f"{case.task_id}.json"), "w") as fh:
            json.dump(case.fixture, fh, indent=1)
    paths = {}
    for name, members in groups.items():
        path = os.path.join(directory, f"suite_{name}.jsonl")
        with open(path, "w") as fh:
            for case in members:
                fh.write(json.dumps(dataset_row(case)) + "\n")
        paths[name] = path
    return paths


def merged_scripts(cases=None):
    merged = {}
    for case in cases or build_cases():
        overlap = merged.keys() & case.scripts.keys()
        if overlap:
            raise ValueError(f"duplicate script keys: {sorted(overlap)}")
        merged.update(case.scripts)
    return merged


def scripted_model(cases=None):
    """A fresh scripted backend covering every episode in the suite."""
    return ScriptedModel(merged_scripts(cases))
