//! Property tests for the grammars read from outside the program: the
//! `MPISIM_FAULTS` spec and the launcher's `MPISIM_WORKER` key. Arbitrary
//! bytes (made text by `String::from_utf8_lossy`, as a foreign environment
//! could hand them over) must never panic a parser, and every rejection
//! must name the variable and quote the token it stopped at.

use crate::env::{self, Worker, WORKER};
use crate::runtime::Fabric;
use crate::FaultPlan;
use proptest::prelude::*;

/// One piece of input: a random byte, or a word of the two grammars'
/// vocabulary.
fn piece() -> impl Strategy<Value = Vec<u8>> {
    #[rustfmt::skip]
    const WORDS: [&str; 16] = [
        ":", ",", "=", "@", "/", "us", "0", "7", "18446744073709551616",
        "shm", "sock", "kill", "delay", "deadline", "drop", " ",
    ];
    (any::<bool>(), any::<u8>(), 0usize..WORDS.len()).prop_map(|(raw, byte, word)| {
        if raw {
            vec![byte]
        } else {
            WORDS[word].as_bytes().to_vec()
        }
    })
}

/// Arbitrary bytes made text, as a foreign environment could hand them
/// over.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(piece(), 0..12)
        .prop_map(|pieces| String::from_utf8_lossy(&pieces.concat()).into_owned())
}

/// Noise half the time; otherwise one of `examples` after up to three
/// edits (a cut, or an inserted piece), so near-misses, and with no edit
/// well-formed values, are as common as noise.
fn input(examples: &'static [&'static str]) -> impl Strategy<Value = String> {
    let edit = (any::<bool>(), any::<usize>(), 1usize..5, piece());
    let mutated = (0..examples.len(), prop::collection::vec(edit, 0..4));
    (any::<bool>(), text(), mutated).prop_map(move |(noise, text, (example, edits))| {
        if noise {
            return text;
        }
        let mut bytes = examples[example].as_bytes().to_vec();
        for (cut, at, len, piece) in edits {
            let at = at % (bytes.len() + 1);
            if cut {
                bytes.drain(at..(at + len).min(bytes.len()));
            } else {
                bytes.splice(at..at, piece);
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

const FAULT_SPECS: [&str; 4] = [
    "7:delay=200/300us,reorder=100",
    "9:kill=1@4,spurious=5",
    "5:kill=2@5,deadline=20000",
    "11:drop=80,delay=3",
];

const WORKER_VALUES: [&str; 3] = [
    "shm:3:/dev/shm/mpisim-1-0",
    "sock:2:127.0.0.1:9",
    "sock:1:/tmp/mpisim-sock-9-0",
];

/// `msg` quotes (as `{:?}` renders it) some piece of `input`.
fn quotes_a_token_of(msg: &str, input: &str) -> bool {
    let cuts: Vec<usize> = input
        .char_indices()
        .map(|(i, _)| i)
        .chain([input.len()])
        .collect();
    cuts.iter().any(|&a| {
        cuts.iter()
            .filter(|&&b| b >= a)
            .any(|&b| msg.contains(&format!("{:?}", &input[a..b])))
    })
}

fn parse_one(name: &str, value: &str) -> Result<env::Env, String> {
    env::parse(|key| (key == name).then(|| value.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_fault_spec_parses_or_names_its_bad_token(spec in input(&FAULT_SPECS)) {
        if let Err(why) = FaultPlan::parse(&spec) {
            prop_assert!(quotes_a_token_of(&why, &spec), "{why}");
            if !spec.trim().is_empty() {
                let err = parse_one("MPISIM_FAULTS", &spec).expect_err("the same spec");
                prop_assert!(err.starts_with(&format!("MPISIM_FAULTS={spec:?}: ")), "{err}");
                prop_assert!(err.contains(&why), "{err}");
            }
        }
    }

    #[test]
    fn a_worker_key_parses_or_names_its_bad_token(value in input(&WORKER_VALUES)) {
        if let Err(err) = parse_one(WORKER, &value) {
            let head = format!("{WORKER}={value:?}: ");
            prop_assert!(err.starts_with(&head), "{err}");
            prop_assert!(quotes_a_token_of(&err[head.len()..], &value), "{err}");
        }
    }

    #[test]
    fn a_launched_worker_reads_back_what_it_was_launched_as(
        sock in any::<bool>(),
        rank in any::<usize>(),
        rendezvous in text(),
    ) {
        prop_assume!(!rendezvous.is_empty());
        let fabric = if sock { Fabric::Sock } else { Fabric::Shm };
        let cmd = env::worker_command(fabric, rank, &rendezvous);
        let (_, value) = cmd
            .get_envs()
            .find(|(key, _)| *key == WORKER)
            .expect("the launcher sets the worker key");
        let value = value.expect("a set key").to_str().expect("UTF-8 in, UTF-8 out");
        let env = parse_one(WORKER, value).unwrap_or_else(|e| panic!("{e}"));
        let launched = Worker { fabric, rank, rendezvous };
        prop_assert_eq!(env.worker, Some(launched));
    }
}
