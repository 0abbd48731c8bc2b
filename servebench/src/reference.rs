//! Host-speed reference: a fixed piece of benchmark-owned work, timed
//! between the rounds of every episode.
//!
//! The host's speed wanders by ±30% over seconds to minutes (other tenants
//! of the machine), and it moves every figure of an episode together. The
//! end-to-end times are therefore reported at a fixed host speed: each
//! episode's wall-clock samples are multiplied by
//! `NOMINAL_MS / median(reference wall in that episode)`, the reference run
//! on as many threads as the sample's call uses (a round's workers, or one
//! thread). The work is the
//! benchmark's own code, never the program's, so a change to the program
//! shows in full and only the host's speed cancels. Its shape follows the
//! program's hot paths: a tree-walking evaluator over a string-keyed
//! environment (the interpreter behind the hardware engine and the front
//! end) and a register bytecode loop (the regalloc tier).

use crate::common::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Reference wall, in ms, at which reported times equal wall-clock times:
/// about the median of [`reference_ms`] on one thread of a 2-core x86-64
/// host.
pub const NOMINAL_MS: f64 = 2.5;

enum Node {
    Lit(u64),
    Var(String),
    Add(Box<Node>, Box<Node>),
    Xor(Box<Node>, Box<Node>),
    Pick(Box<Node>, Box<Node>, Box<Node>),
}

fn build(rng: &mut Rng, depth: u32) -> Node {
    if depth == 0 {
        return match rng.below(2) {
            0 => Node::Lit(rng.next() & 0xffff),
            _ => Node::Var(format!("v{}", rng.below(64))),
        };
    }
    let kind = rng.below(3);
    let mut kid = || Box::new(build(rng, depth - 1));
    match kind {
        0 => Node::Add(kid(), kid()),
        1 => Node::Xor(kid(), kid()),
        _ => Node::Pick(kid(), kid(), kid()),
    }
}

fn eval(n: &Node, env: &BTreeMap<String, u64>) -> u64 {
    match n {
        Node::Lit(v) => *v,
        Node::Var(name) => env.get(name).copied().unwrap_or(0),
        Node::Add(a, b) => eval(a, env).wrapping_add(eval(b, env)),
        Node::Xor(a, b) => eval(a, env) ^ eval(b, env).rotate_left(3),
        Node::Pick(c, a, b) => {
            if eval(c, env) & 1 == 1 {
                eval(a, env)
            } else {
                eval(b, env)
            }
        }
    }
}

/// Runs 256 seeded three-address instructions over 32 registers.
fn bytecode(rng: &mut Rng, passes: u32) -> u64 {
    let code: Vec<[usize; 4]> = (0..256)
        .map(|_| {
            let mut r = || rng.below(32) as usize;
            [r() % 4, r(), r(), r()]
        })
        .collect();
    let mut regs: Vec<u64> = (0..32).collect();
    for _ in 0..passes {
        for &[op, a, b, c] in &code {
            regs[a] = match op {
                0 => regs[b].wrapping_add(regs[c]),
                1 => regs[b] ^ regs[c].rotate_left(7),
                2 => regs[b].wrapping_mul(regs[c] | 1),
                _ if regs[b] & 1 == 1 => regs[c],
                _ => regs[a],
            };
        }
    }
    regs.iter().fold(0, |x, r| x ^ r)
}

fn work() -> u64 {
    let mut rng = Rng::new(7);
    let tree = build(&mut rng, 9);
    let mut env: BTreeMap<String, u64> = (0..64).map(|i| (format!("v{}", i), i)).collect();
    let mut x = 0;
    for pass in 0..40u64 {
        x ^= eval(&tree, &env);
        env.insert(format!("v{}", pass % 64), x);
    }
    x ^ bytecode(&mut rng, 1500)
}

/// Wall time of the reference work run once on each of `threads` threads
/// at the same time (the workers a parallel round uses), in ms.
pub fn reference_ms(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| std::hint::black_box(work()));
        }
        std::hint::black_box(work());
    });
    t.elapsed().as_secs_f64() * 1e3
}
