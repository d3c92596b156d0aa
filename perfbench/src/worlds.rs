//! Seeded workload generators: a world for `gdp-serve --load`, the
//! statement stream one session sends, and the reply every statement must
//! get, computed from the generated data rather than from the engine.
//!
//! A seed changes parameters (which city, which instant, which threshold,
//! which terrain) but never the number of statements or the order of
//! statement families, so every seed does the same amount of work of the
//! same kinds. World sizes are fixed too, except the query world's road
//! network, whose roads and bridges follow the seed's terrain.

use std::fmt::Write as _;

use gdp::datagen::{
    Cover, DepthSurvey, Network, NetworkConfig, SurveyConfig, Terrain, TerrainConfig,
};
use gdp::engine::Term;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One statement of the stream: a single protocol line.
pub struct Stmt {
    /// `query`, `commit`, `begin`, `block`, `end` (the `:commit` line),
    /// `audit` or `seq`.
    pub kind: &'static str,
    /// Query family, or the kind again for non-queries.
    pub family: &'static str,
    /// The line sent to the server (no tab, no newline).
    pub text: String,
    /// The expected reply, as a JSON object (see `benchlib.check_reply`).
    pub expect: String,
}

/// A generated workload.
pub struct Workload {
    /// The `--load` file.
    pub world: String,
    /// Clauses the world asserts (facts, rules and constraints).
    pub world_clauses: usize,
    /// The session's statements, in order.
    pub stmts: Vec<Stmt>,
    /// The restart check: a count query and the count it must answer
    /// after every acknowledged commit has been recovered.
    pub count_query: String,
    /// Expected answer of `count_query` after the whole stream.
    pub final_count: usize,
    /// Environment variables the server and the replay run under.
    pub env: Vec<(String, String)>,
}

/// Render a float exactly as the engine prints a bound float term.
fn float_text(v: f64) -> String {
    Term::float(v).to_string()
}

/// Escape a string for a JSON string literal (the texts here are plain
/// ASCII atoms and numbers; quotes and backslashes are all that occur).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn expect_rows(vars: &[&str], rows: &[Vec<String>]) -> String {
    let vars: Vec<String> = vars.iter().map(|v| json_str(v)).collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "[{}]",
                r.iter().map(|v| json_str(v)).collect::<Vec<_>>().join(",")
            )
        })
        .collect();
    format!(
        "{{\"t\":\"rows\",\"vars\":[{}],\"rows\":[{}]}}",
        vars.join(","),
        rows.join(",")
    )
}

fn expect_bool(holds: bool) -> String {
    format!("{{\"t\":\"{}\"}}", if holds { "yes" } else { "no" })
}

fn expect_commit(facts: usize, seq: usize) -> String {
    format!("{{\"t\":\"commit\",\"facts\":{facts},\"seq\":{seq}}}")
}

fn expect_seq(seq: usize) -> String {
    format!("{{\"t\":\"seq\",\"seq\":{seq}}}")
}

fn ask(family: &'static str, text: String, expect: String) -> Stmt {
    Stmt {
        kind: "query",
        family,
        text,
        expect,
    }
}

fn seq_probe(seq: usize) -> Stmt {
    Stmt {
        kind: "seq",
        family: "seq",
        text: ":seq".into(),
        expect: expect_seq(seq),
    }
}

/// Derive an independent sub-seed (splitmix64 finalizer).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A terrain, its road network and bridge histories, written as
/// specification text. Shared by the query and ingest worlds.
struct Geography {
    terrain: Terrain,
    network: Network,
    /// City positions (cell plus a seeded offset, so no two distances tie).
    city_xy: Vec<(f64, f64)>,
    /// `(year, status)` histories of the first bridges, oldest first.
    histories: Vec<Vec<(i64, &'static str)>>,
    /// Bridge id → (road id, open?).
    bridges: Vec<(u32, bool)>,
    /// Road id → its bridge ids.
    crossings: Vec<Vec<usize>>,
    /// Sounding id → (depth text, confidence text).
    soundings: Vec<(String, String)>,
}

/// Side of a coarse cell, in fine cells.
const COARSE: u32 = 4;

impl Geography {
    fn generate(
        seed: u64,
        side: u32,
        cities: u32,
        histories: usize,
        soundings: usize,
    ) -> Geography {
        let terrain = Terrain::generate(TerrainConfig {
            seed: mix(seed, 1),
            width: side,
            height: side,
            feature_scale: 20.0,
            octaves: 4,
            water_level: 0.45,
            max_elevation: 1000.0,
        });
        let network = Network::generate(
            &terrain,
            NetworkConfig {
                seed: mix(seed, 2),
                n_cities: cities,
                extra_edges: cities / 4,
                open_probability: 0.8,
            },
        );
        let mut rng = StdRng::seed_from_u64(mix(seed, 3));
        let city_xy = network
            .cities
            .iter()
            .map(|c| {
                (
                    f64::from(c.cell.0) + rng.gen_range(10..90) as f64 / 100.0,
                    f64::from(c.cell.1) + rng.gen_range(10..90) as f64 / 100.0,
                )
            })
            .collect();
        // One bridge per water crossing: a run of consecutive water cells
        // along a road is spanned by one bridge (the generator's status
        // of its first cell), not by one bridge per cell.
        let mut bridges = Vec::new();
        let mut crossings = vec![Vec::new(); network.roads.len()];
        for road in &network.roads {
            let mut in_water = false;
            for &(i, j) in &road.cells {
                let water = terrain.is_water(i, j);
                if water && !in_water {
                    let open = road
                        .bridges
                        .iter()
                        .find(|b| b.cell == (i, j))
                        .expect("every water cell of a road is bridged")
                        .open;
                    crossings[road.id as usize].push(bridges.len());
                    bridges.push((road.id, open));
                }
                in_water = water;
            }
        }
        // Histories cover a fixed number of bridges: the engine's status
        // lookup scans every status fact, so their count sets its cost.
        let histories = (0..histories.min(bridges.len()))
            .map(|_| {
                let y0 = 1900 + rng.gen_range(0i64..20);
                let y1 = y0 + rng.gen_range(5i64..30);
                let y2 = y1 + rng.gen_range(5i64..30);
                let middle = if rng.gen_bool(0.5) {
                    "closed"
                } else {
                    "repairs"
                };
                vec![(y0, "open"), (y1, middle), (y2, "open")]
            })
            .collect();
        // A fixed number of soundings whatever the seed's water share:
        // the survey's water cells are reused in order when short.
        let survey = DepthSurvey::generate(
            &terrain,
            SurveyConfig {
                seed: mix(seed, 4),
                spacing: 1,
                noise_sd: 2.0,
            },
        );
        let soundings = (0..soundings)
            .map(|i| {
                let s = survey.samples[i % survey.samples.len()];
                (format!("{:.1}", s.depth), format!("{:.2}", s.confidence))
            })
            .collect();
        Geography {
            terrain,
            network,
            city_xy,
            histories,
            bridges,
            crossings,
            soundings,
        }
    }

    /// Majority cover of a coarse cell (ties go to the first class seen).
    fn coarse_cover(&self, a: u32, b: u32) -> Cover {
        let mut counts: Vec<(Cover, u32)> = Vec::new();
        for j in b * COARSE..(b + 1) * COARSE {
            for i in a * COARSE..(a + 1) * COARSE {
                let c = self.terrain.cover(i, j);
                match counts.iter_mut().find(|(k, _)| *k == c) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((c, 1)),
                }
            }
        }
        let best = counts
            .iter()
            .map(|(_, n)| *n)
            .max()
            .expect("non-empty cell");
        counts
            .iter()
            .find(|(_, n)| *n == best)
            .expect("max exists")
            .0
    }

    /// Write the world; returns the number of clauses written. Without
    /// the road network (roads, bridges, histories and their rules), the
    /// clause count no longer depends on the seed.
    fn write(&self, out: &mut String, network: bool) -> usize {
        let side = self.terrain.width();
        let mut n = 0;
        let _ = writeln!(out, "#grid fine square(0, 0, 1, {side}, {side}).");
        let _ = writeln!(
            out,
            "#grid coarse square(0, 0, {COARSE}, {0}, {0}).",
            side / COARSE
        );
        let _ = writeln!(out, "#activate continuity_assumption.");
        for j in 0..side {
            for i in 0..side {
                let _ = writeln!(
                    out,
                    "@u[fine] pt({i}.5, {j}.5) cover({}).",
                    self.terrain.cover(i, j).name()
                );
                n += 1;
            }
        }
        let half = COARSE / 2;
        for b in 0..side / COARSE {
            for a in 0..side / COARSE {
                let _ = writeln!(
                    out,
                    "@u[coarse] pt({}.0, {}.0) landuse({}).",
                    a * COARSE + half,
                    b * COARSE + half,
                    self.coarse_cover(a, b).name()
                );
                n += 1;
            }
        }
        for (city, &(x, y)) in self.network.cities.iter().zip(&self.city_xy) {
            let _ = writeln!(out, "@ pt({x:.2}, {y:.2}) city(c{}).", city.id);
            let _ = writeln!(out, "population({})(c{}).", city.population, city.id);
            n += 2;
        }
        for (id, (depth, conf)) in self.soundings.iter().enumerate() {
            let _ = writeln!(out, "%{conf} depth({depth})(s{id}).");
            n += 1;
        }
        if !network {
            return n;
        }
        for road in &self.network.roads {
            let _ = writeln!(
                out,
                "road(r{0}). connects(r{0}, c{1}, c{2}).",
                road.id, road.cities.0, road.cities.1
            );
            n += 2;
        }
        for (id, &(road, open)) in self.bridges.iter().enumerate() {
            let _ = writeln!(out, "bridge(b{id}, r{road}).");
            n += 1;
            if open {
                let _ = writeln!(out, "open(b{id}).");
                n += 1;
            }
        }
        for (id, history) in self.histories.iter().enumerate() {
            for (year, status) in history {
                let _ = writeln!(out, "& {year} status({status})(b{id}).");
                n += 1;
            }
        }
        out.push_str(
            "open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).\n\
             closed(X) :- bridge(X, R), not(open(X)).\n\
             linked(A, B) :- connects(R, A, B), open_road(R).\n\
             linked(A, B) :- connects(R, B, A), open_road(R).\n",
        );
        n + 4
    }

    fn road_open(&self, road: u32) -> bool {
        self.crossings[road as usize]
            .iter()
            .all(|&b| self.bridges[b].1)
    }
}

/// Pick a threshold in `lo..hi` at least `gap` away from every value in
/// `values`, so float rounding cannot move an answer across it.
fn clear_threshold(rng: &mut StdRng, lo: f64, hi: f64, gap: f64, values: &[f64]) -> f64 {
    loop {
        let t = lo + (hi - lo) * rng.gen_range(0..10_000) as f64 / 10_000.0;
        if values.iter().all(|v| (v - t).abs() > gap) {
            return t;
        }
    }
}

/// Query families in their fixed round-robin order.
pub const FAMILIES: [&str; 6] = [
    "point",
    "proximity",
    "containment",
    "crossing",
    "temporal",
    "fuzzy",
];

/// `query`: read-only serving over a ~10⁵-clause world.
pub fn query(seed: u64, rounds: usize) -> Workload {
    let geo = Geography::generate(seed, 288, 400, 250, 3_000);
    let mut world = String::new();
    let world_clauses = geo.write(&mut world, true);
    let mut rng = StdRng::seed_from_u64(mix(seed, 5));
    let side = geo.terrain.width();
    let mut stmts = Vec::new();
    for round in 0..rounds {
        for family in FAMILIES {
            stmts.push(match family {
                "point" => {
                    let r = &geo.network.roads[rng.gen_range(0..geo.network.roads.len())];
                    ask(
                        family,
                        format!("?- connects(r{}, A, B).", r.id),
                        expect_rows(
                            &["A", "B"],
                            &[vec![format!("c{}", r.cities.0), format!("c{}", r.cities.1)]],
                        ),
                    )
                }
                "proximity" => {
                    let k = rng.gen_range(0..geo.city_xy.len());
                    let (x0, y0) = geo.city_xy[k];
                    let dists: Vec<f64> = geo
                        .city_xy
                        .iter()
                        .map(|&(x, y)| ((x - x0) * (x - x0) + (y - y0) * (y - y0)).sqrt())
                        .collect();
                    let radius = clear_threshold(&mut rng, 8.0, 14.0, 1e-3, &dists);
                    let rows: Vec<Vec<String>> = dists
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| **d < radius)
                        .map(|(c, _)| vec![format!("c{c}")])
                        .collect();
                    ask(
                        family,
                        format!("?- @ P city(c{k}), @ Q city(C), dist(P, Q, D), D < {radius:.4}."),
                        expect_rows(&["C"], &rows),
                    )
                }
                "containment" => {
                    if round % 2 == 0 {
                        // A point inside one fine land-cover patch.
                        let (i, j) = (rng.gen_range(0..side), rng.gen_range(0..side));
                        let (fx, fy) = (rng.gen_range(1..9), rng.gen_range(1..9));
                        ask(
                            family,
                            format!("?- @ pt({i}.{fx}, {j}.{fy}) cover(C)."),
                            expect_rows(&["C"], &[vec![geo.terrain.cover(i, j).name().into()]]),
                        )
                    } else {
                        // The cities a coarse cell samples: the cell of a
                        // seeded city, so the answer is never empty.
                        let (x, y) = geo.city_xy[rng.gen_range(0..geo.city_xy.len())];
                        let cell = |v: f64| (v as u32 / COARSE) * COARSE;
                        let (cx, cy) = (cell(x), cell(y));
                        let rows: Vec<Vec<String>> = geo
                            .city_xy
                            .iter()
                            .enumerate()
                            .filter(|(_, &(x, y))| cell(x) == cx && cell(y) == cy)
                            .map(|(c, _)| vec![format!("c{c}")])
                            .collect();
                        ask(
                            family,
                            format!(
                                "?- @s[coarse] pt({}.0, {}.0) city(C).",
                                cx + COARSE / 2,
                                cy + COARSE / 2
                            ),
                            expect_rows(&["C"], &rows),
                        )
                    }
                }
                "crossing" => match round % 3 {
                    0 => {
                        let r = rng.gen_range(0..geo.network.roads.len()) as u32;
                        ask(
                            family,
                            format!("?- open_road(r{r})."),
                            expect_bool(geo.road_open(r)),
                        )
                    }
                    1 => {
                        let c = rng.gen_range(0..geo.network.cities.len()) as u32;
                        let mut linked: Vec<Vec<String>> = Vec::new();
                        for road in &geo.network.roads {
                            let other = match road.cities {
                                (a, b) if a == c => b,
                                (a, b) if b == c => a,
                                _ => continue,
                            };
                            let row = vec![format!("c{other}")];
                            if geo.road_open(road.id) && !linked.contains(&row) {
                                linked.push(row);
                            }
                        }
                        ask(
                            family,
                            format!("?- linked(c{c}, X)."),
                            expect_rows(&["X"], &linked),
                        )
                    }
                    _ => {
                        let b = rng.gen_range(0..geo.bridges.len());
                        ask(
                            family,
                            format!("?- closed(b{b})."),
                            expect_bool(!geo.bridges[b].1),
                        )
                    }
                },
                "temporal" => {
                    let b = rng.gen_range(0..geo.histories.len());
                    let h = &geo.histories[b];
                    // Strictly inside the history and never on a change,
                    // where continuity alone decides the status.
                    let mut year = rng.gen_range(h[0].0 + 1..h[2].0);
                    if year == h[1].0 {
                        year += 1;
                    }
                    let status = if year < h[1].0 { h[0].1 } else { h[1].1 };
                    ask(
                        family,
                        format!("?- & {year} status(S)(b{b})."),
                        expect_rows(&["S"], &[vec![status.into()]]),
                    )
                }
                _ => {
                    let s = rng.gen_range(0..geo.soundings.len());
                    let (depth, conf) = &geo.soundings[s];
                    let a: f64 = conf.parse().expect("generated number");
                    let t = clear_threshold(&mut rng, 0.3, 1.0, 0.004, &[a]);
                    let rows = if a > t {
                        vec![vec![
                            float_text(a),
                            float_text(depth.parse().expect("generated number")),
                        ]]
                    } else {
                        Vec::new()
                    };
                    ask(
                        family,
                        format!("?- %A depth(Z)(s{s}), A > {t:.3}."),
                        expect_rows(&["A", "Z"], &rows),
                    )
                }
            });
        }
        stmts.push(seq_probe(0));
    }
    Workload {
        world,
        world_clauses,
        stmts,
        count_query: "?- card(road(_), N).".into(),
        final_count: geo.network.roads.len(),
        env: Vec::new(),
    }
}

/// Block sizes of the ingest stream: a fixed permutation of 1..=16, so
/// every seed commits the same number of facts in the same shapes.
const BLOCK_SIZES: [usize; 16] = [5, 12, 1, 9, 16, 3, 14, 7, 2, 11, 6, 15, 4, 10, 13, 8];

/// `ingest`: a durable write stream over a ~2×10⁴-clause base.
pub fn ingest(seed: u64, commits: usize) -> Workload {
    let geo = Geography::generate(seed, 96, 150, 0, 3_000);
    let mut world = String::new();
    let mut world_clauses = geo.write(&mut world, false);
    let mut rng = StdRng::seed_from_u64(mix(seed, 6));
    let sites = geo.soundings.len();
    let mut obs = 0usize;
    let fact = |rng: &mut StdRng, obs: &mut usize| {
        let text = format!(
            "obs(o{obs}, s{}, {:.2}, {}).",
            rng.gen_range(0..sites),
            rng.gen_range(0..100_000) as f64 / 100.0,
            rng.gen_range(1950..2000)
        );
        *obs += 1;
        text
    };
    for _ in 0..5_000 {
        world.push_str(&fact(&mut rng, &mut obs));
        world.push('\n');
        world_clauses += 1;
    }
    let mut stmts = Vec::new();
    for c in 0..commits {
        let k = BLOCK_SIZES[c % BLOCK_SIZES.len()];
        let seq = c + 1;
        let facts: Vec<String> = (0..k).map(|_| fact(&mut rng, &mut obs)).collect();
        if c % 4 == 3 {
            // A :begin/:commit transaction of up to three buffered blocks.
            stmts.push(Stmt {
                kind: "begin",
                family: "begin",
                text: ":begin".into(),
                expect: "{\"t\":\"begin\"}".into(),
            });
            let parts = k.min(3);
            let mut start = 0;
            for p in 0..parts {
                let end = start + (k - start) / (parts - p);
                stmts.push(Stmt {
                    kind: "block",
                    family: "block",
                    text: facts[start..end].join(" "),
                    expect: format!("{{\"t\":\"buffered\",\"n\":{}}}", p + 1),
                });
                start = end;
            }
            stmts.push(Stmt {
                kind: "end",
                family: "commit",
                text: ":commit".into(),
                expect: expect_commit(k, seq),
            });
        } else {
            stmts.push(Stmt {
                kind: "commit",
                family: "commit",
                text: facts.join(" "),
                expect: expect_commit(k, seq),
            });
        }
        if seq % 8 == 0 {
            stmts.push(seq_probe(seq));
        }
    }
    Workload {
        world,
        world_clauses,
        stmts,
        count_query: "?- card(obs(_, _, _, _), N).".into(),
        final_count: obs,
        env: Vec::new(),
    }
}

/// Models of the audit world; the first `AUDITED` are read by constraints.
const MODELS: usize = 8;
const AUDITED: usize = 4;

/// `audit`: one-reading commits alternating with `:audit -j 2 -i`, tabled.
/// The audit asks for two workers, the server's default on two CPUs, so
/// that it runs the same way wherever the server is pinned.
pub fn audit(seed: u64, rounds: usize, readings: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(mix(seed, 7));
    let mut world = String::new();
    let mut world_clauses = 0;
    let models: Vec<String> = (0..MODELS).map(|m| format!("m{m}")).collect();
    for m in &models {
        let _ = writeln!(world, "#model {m}.");
    }
    let _ = writeln!(world, "#world_view {{ omega, {} }}.", models.join(", "));
    let gap = readings as i64 - 1;
    let mut violations = Vec::new();
    for m in 0..MODELS {
        // A seeded permutation of 0..readings: exactly one pair per model
        // is `gap` apart (the readings 0 and gap).
        let mut values: Vec<i64> = (0..readings as i64).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, rng.gen_range(0..=i));
        }
        for (i, v) in values.iter().enumerate() {
            let _ = writeln!(world, "m{m}'reading(r{m}_{i}, {v}).");
            world_clauses += 1;
        }
        if m < AUDITED {
            let _ = writeln!(
                world,
                "constraint gap{m}(X, Y) :- m{m}'reading(X, V1), m{m}'reading(Y, V2), \
                 V1 < V2, V2 =:= V1 + {gap}."
            );
            world_clauses += 1;
            let lo = values.iter().position(|&v| v == 0).expect("permutation");
            let hi = values.iter().position(|&v| v == gap).expect("permutation");
            violations.push(format!("omega'ERROR(gap{m}, r{m}_{lo}, r{m}_{hi})"));
        }
    }
    let violations: Vec<String> = violations.iter().map(|v| json_str(v)).collect();
    let audit_expect = format!(
        "{{\"t\":\"audit\",\"violations\":[{}]}}",
        violations.join(",")
    );
    // Commits alternate between audited and unaudited models. Committed
    // values sit below every base value and differ from each other by
    // multiples of `readings`, so no commit completes a new violation.
    let order: Vec<usize> = (0..AUDITED).flat_map(|a| [a, AUDITED + a]).collect();
    let mut stmts = Vec::new();
    for r in 0..rounds {
        let m = order[r % order.len()];
        let value = -((r as i64 + 1) * readings as i64);
        stmts.push(Stmt {
            kind: "commit",
            family: "commit",
            text: format!("m{m}'reading(u{m}_{r}, {value})."),
            expect: expect_commit(1, r + 1),
        });
        stmts.push(Stmt {
            kind: "audit",
            family: "audit",
            text: ":audit -j 2 -i".into(),
            expect: audit_expect.clone(),
        });
        if (r + 1) % 5 == 0 {
            stmts.push(seq_probe(r + 1));
        }
    }
    Workload {
        world,
        world_clauses,
        stmts,
        count_query: "?- card(m0'reading(_, _), N).".into(),
        final_count: readings + rounds.div_ceil(order.len()),
        env: vec![("GDP_TABLING".into(), "on".into())],
    }
}

impl Workload {
    /// The stream as `kind \t family \t text \t expect` lines.
    pub fn stream_tsv(&self) -> String {
        let mut out = String::new();
        for s in &self.stmts {
            assert!(
                !s.text.contains(['\t', '\n']),
                "one protocol line per statement"
            );
            let _ = writeln!(out, "{}\t{}\t{}\t{}", s.kind, s.family, s.text, s.expect);
        }
        out
    }
}
