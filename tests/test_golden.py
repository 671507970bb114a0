"""Golden output trees: every subcommand's files pinned by SHA-256.

Each case runs one ``volint`` command on a small synthetic corpus (or a
CSV tree written from one) at ``--jobs 2`` and compares the exit code and
the SHA-256 of every output file with the digests in GOLDEN. A refactor
that keeps the output byte-identical keeps this test green; any change of
a file, a file name or an exit code fails it.

The digests pin bytes produced by one numpy build; a different build
may round a fitted number differently. To re-record them after an
intended output change, run ``python tests/test_golden.py`` and paste the
printed dictionary over GOLDEN.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

import volint as vi
from volint.cli import main

SYNTH = ["--synth-kind", "fgn", "--synth-n-stocks", "6",
         "--synth-length", "2048", "--synth-hurst", "0.8",
         "--synth-vol-scale", "0.4", "--synth-df", "3.0", "--seed", "17"]
CSV = ["--data-dir", "{csv}"]

CASES = {
    "intervals_dump": ["intervals", *SYNTH, "--thresholds", "2,3",
                       "--dump-intervals"],
    "intervals_price_csv": ["intervals", *CSV, "--series", "price"],
    "intervals_empty": ["intervals", *SYNTH, "--thresholds", "50"],
    "conditional_quantile": ["conditional", *SYNTH, "--thresholds", "2",
                             "--octiles", "quantile"],
    "conditional_shuffled": ["conditional", *SYNTH, "--thresholds", "2,2.5",
                             "--shuffled"],
    "dfa_dump": ["dfa", *SYNTH, "--dump-fluctuations"],
    "dfa_shuffled_order2": ["dfa", *SYNTH, "--shuffled", "--order", "2"],
    "dfa_csv": ["dfa", *CSV],
    "factors_q25": ["factors", *SYNTH, "--q", "2.5"],
    "factors_csv": ["factors", *CSV],
    "synth": ["synth", "--kind", "cascade", "--n-stocks", "3",
              "--length", "512", "--sigma", "0.4", "--df", "3.0",
              "--seed", "9"],
}

# lengths of the CSV tree's stocks; the last is below the default
# lifetime filter of 350 and is rejected on load
CSV_LENGTHS = (700, 900, 1100, 1300, 1500, 1700, 200)


def write_csv_tree(root: Path) -> None:
    """A CSV tree with varied lifetimes, one short file and one bad row."""
    def rule(i):
        return vi.GeneratorSpec("fgn", CSV_LENGTHS[i],
                                {"hurst": 0.75, "vol_scale": 0.5},
                                vi.derive_seed(31, f"{i:05d}"))
    corpus, _ = vi.synth_corpus(len(CSV_LENGTHS), rule, min_lifetime=0)
    vi.write_corpus(corpus, root)
    with open(root / "S00001.csv", "a") as fh:
        fh.write("2001/01/01,5,1.0,\n")


def run_case(name: str, tmp: Path) -> tuple[int, dict]:
    """Exit code and {relative path: sha256} of one case's output tree."""
    csv = tmp / "csv"
    if not csv.exists():
        write_csv_tree(csv)
    out = tmp / name
    argv = [a.format(csv=csv) for a in CASES[name]] + ["--out", str(out)]
    if name != "synth":
        argv += ["--jobs", "2"]
    code = main(argv)
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
    return code, digests


GOLDEN = {
    'conditional_quantile': (0, {
        'cond_q2_Q1.tsv':
            '785f1a79313e483ac76dee5b98dcb41342eec323d59cf9fc1274e9d78d4ff1e5',
        'cond_q2_Q2.tsv':
            '0c487bca69a2ce07a4be51ee63c56de9e607fea4a84ecd549a2e6d0dbede69b5',
        'cond_q2_Q3.tsv':
            '6ca81b53419af0baac96d2d1e6ba0ab05259d621beec72952c377757fd76b2e6',
        'cond_q2_Q4.tsv':
            '386ae17faa8d7d1c72e5440e19787af9392985e2561b93ce416533c91517179e',
        'cond_q2_Q5.tsv':
            '3f45bc5b64fc93da14dd7148afe835425d0f729d35bf7ca7f6db09ceecb2792c',
        'cond_q2_Q6.tsv':
            '4e7c11df568bcdc4ae076661fbbdffb39ab35d443676845258ae0391b2543953',
        'cond_q2_Q7.tsv':
            '14e185ecdc9f183de458b3530471a7a664fcfcb77b7a3ec8c2ef3ac5b0ff709d',
        'cond_q2_Q8.tsv':
            '28088b316156df24717dba8cea439791d341e7a59757decbcfa3ecbf4789122c',
        'report.json':
            '42ad5581ad4e412e77e95bb982d20dee9c9cea4cdfb574cf1b4709c8c88fe4b8',
    }),
    'conditional_shuffled': (0, {
        'cond_q2.5_Q1.tsv':
            '86ef2bd73d7acf95284c1d1b2e5d4b69ac0411169659af9a4d7d06cdcfb83f0a',
        'cond_q2.5_Q2.tsv':
            '56c17beb39f023258c041758ebe7e4b99dd5c66ee4a86fc4f94769fc77ea9ac0',
        'cond_q2.5_Q3.tsv':
            '72168e5d9d621045213087c464fe30238109afcfe6aa2160c904712bbc8b579b',
        'cond_q2.5_Q4.tsv':
            '8af66f865fa383a5fca7444f1ec48d1cf47cfe2c7d6979e7a7535d49101b54c7',
        'cond_q2.5_Q5.tsv':
            'e03b501e71725fa2ac546744a703bcc46f5e776d563eb17f40812f6ee6d88f99',
        'cond_q2.5_Q6.tsv':
            'f6e95669dd52c7706be8dd251e2ba5662e4730c9d04aa7ad078ec10022ed6d0b',
        'cond_q2.5_Q7.tsv':
            '0764be33eb57ec879f3a721ab9f642296b39b6258bab6b057ce0d3a90b9623b4',
        'cond_q2.5_Q8.tsv':
            '09b69c75ab24175947428698167882b5167451a162a1a64ff1f94d243676ccd1',
        'cond_q2_Q1.tsv':
            '616c7371c442f5094026057f8329f4b0408848f1850d0590c326806515f90e16',
        'cond_q2_Q2.tsv':
            'b95ebea917aa7cd2834ebd73ee2758c016a5f2c15d6eefdc6dab5dc8149852c9',
        'cond_q2_Q3.tsv':
            '6b07f455ca9414c82f6c54b01c4387b8e941719ba96fa12dccf9510212e9a4dc',
        'cond_q2_Q4.tsv':
            '277f7ef00c6274f347ec2a735324ed17a701e698fa6d2104495764b4d1bd8c4d',
        'cond_q2_Q5.tsv':
            '6b137b136cc74cf8e0d0f728df86c6ddd481ed1c4e3cdc364dbfc411df425557',
        'cond_q2_Q6.tsv':
            '81ce6ab9611c9f71082d174f5e475c1a7a0b3c062269dd949e1674e82f943e12',
        'cond_q2_Q7.tsv':
            'a371f0343ce64afb74b3c4f0d90fc53b9cf848f51988f51c290d247f66970376',
        'cond_q2_Q8.tsv':
            '911e4e3dd59872dcd551d287a4d42d0980dd8e5fc488b6471ff9a7e920f6b8e5',
        'report.json':
            '218a73c55c434f14e8b10d9a68b43abc62c8257f7e7d090e38e97ac1fa19a394',
    }),
    'dfa_csv': (0, {
        'dfa_alpha_by_capitalization.tsv':
            'fdeaaeab138ef8ebb098e548d689463833906a210863c92f9180960f1c419752',
        'dfa_alpha_by_lifetime.tsv':
            '97dec645fcb8fea52e255caa723674d3cdf93cd219690563239f97391fd34096',
        'dfa_alpha_by_trading_value.tsv':
            'db98d0cdcfab0eaa4e8af1e9ef04bd4836250a5176dee5362fb7a8b19c948011',
        'dfa_alpha_by_volume.tsv':
            'a5245754496f1cd06ec52f68943e7516a90b25aa48883e3989f47b3b72c39c5c',
        'report.json':
            '7b6a1f0a47a064255539dd8ca14a04442f8eb8c559654f5bf0f574d398f067b3',
    }),
    'dfa_dump': (0, {
        'dfa_alpha_by_capitalization.tsv':
            'a4e2a4b461933e0ce948504915fbebe5a154105b55e11ad315460ec3d4b24f4e',
        'dfa_alpha_by_lifetime.tsv':
            '0334f73d8fbb7c9eb95d576daefa359939256907f1a92012e9c14d733a73afb6',
        'dfa_alpha_by_trading_value.tsv':
            'ebeb91306bc16ab6e5e8b118d38b7a802b17619ad459262fcd0eaf862b0a48dc',
        'dfa_alpha_by_volume.tsv':
            '78794f08582dfd9855d3c68ad3695217dfe9e583f11b32f44003894b01db4071',
        'dfa_fluct_S00000.tsv':
            '3746bec8bcce86f3830ed0c9fcd5adb0cd0225068e656eabc774a444fcd60b8d',
        'dfa_fluct_S00001.tsv':
            '56ed7ac8cd7640e414c35b7966eea579ea8d18e6536ea9fb5ee23cc56cd192e0',
        'dfa_fluct_S00002.tsv':
            '21a340db90a4a4d91f261a3c604eb3ea962e0b849eaa2061fff1e89d605e901a',
        'dfa_fluct_S00003.tsv':
            '248403f7ffa48102071133cc12ef95d7e5ab685b6e0dca85939ea2f67f333fc9',
        'dfa_fluct_S00004.tsv':
            'aa55aa71d09048a010ee84862f9da542b73db9ac1784f1a80addd35e17779b9e',
        'dfa_fluct_S00005.tsv':
            '86042f47b43146003885fbab14a73efe608bcd91fb142c7d4f97ce4bd4def2da',
        'report.json':
            '6963cf4ea819c7680321ee91e4c956079f8112fc9f6697362ecd51ec9c507ca2',
    }),
    'dfa_shuffled_order2': (0, {
        'dfa_alpha_by_capitalization.tsv':
            'd06bdb1318a6eeaf0974df6228119074802d0c28532cdf2ca87f017dd8a4c916',
        'dfa_alpha_by_lifetime.tsv':
            'ed9a72e67b1c9dd8349ceb14a4bd4b71dc7d40fda03427686e6a64bdfc680b66',
        'dfa_alpha_by_trading_value.tsv':
            '937388de1ecedca0c33af252b7daecd0b4a2fbf0b062f6bb8e36f270f6c511db',
        'dfa_alpha_by_volume.tsv':
            '0abcfc8cdee0bba6035306216111b41c05be0adc183764d7727cefba58809d60',
        'report.json':
            'ad78fc382dffcaaabee4da617f5f7e9972510cfa0e768e3fb895776712adc99b',
    }),
    'factors_csv': (0, {
        'gamma_by_capitalization.tsv':
            '03e2a96556ca901347eff4393f7b465180106afc4d077a0a2afbce574d51e876',
        'gamma_by_lifetime.tsv':
            '6100c8aacd686c516497cfa3e02d747bfde52809807fd4d0165bd373c060820d',
        'gamma_by_trading_value.tsv':
            '499b66b804fd4b69f5cbec570de652d4f88cabdbf1f721f919c3912f2b0c5882',
        'gamma_by_volume.tsv':
            '0ed80e2301be3b0f82596486a1e421b9425a0ae5543db71d44ecb6c9061a8c58',
        'report.json':
            'e28a44ea21c0e0d7223c6a5adc886cc7c252959547b67a3628c3f80780d42ab1',
        'scatter_capitalization_vs_trading_value.tsv':
            '13062c3ed9a5832bee9fd22a1af83f0766e6f69074758bd36c6e02022729c76d',
        'scatter_capitalization_vs_volume.tsv':
            'de1e31add4bac78e05c15005209bb68ef1af23bf01c9911f3d77d4a5b528b6ad',
        'scatter_lifetime_vs_capitalization.tsv':
            '039f8e51febbf49ed7317acf8766a29efa04ca4a01fe9cdbe4bf62e2da716298',
        'scatter_lifetime_vs_trading_value.tsv':
            '9a60aca005250c0f6f4d55750535562d41b71febaf07282491e14e6a07ab9460',
        'scatter_lifetime_vs_volume.tsv':
            'b7adc4717fe80de36ab96546a6b3fd393407c72429820c08cac762418bd523e3',
        'scatter_volume_vs_trading_value.tsv':
            '988c5c90551a8f488218d0dd1cec87fb2e3fa2cc62570b44d1c144e694e924ce',
    }),
    'factors_q25': (0, {
        'gamma_by_capitalization.tsv':
            'cd163203972f1941848b090d47064c5b605448a6ee9d55e6dd88a7872a516c0b',
        'gamma_by_lifetime.tsv':
            'ca85ba36851748d9961e3fcd1e4c311b5fd5ea89346c7ec19ee147a8cc421da6',
        'gamma_by_trading_value.tsv':
            '0307f5e18a8c511339b271713d85ec381426f3a5f507e3d56697d963c0d32e7a',
        'gamma_by_volume.tsv':
            '6f8ef44fb01d95d0d7f88a51ca687aa3e0d8c4c524d62d5cd6de98c94453a415',
        'report.json':
            '76d9647f71b9de20b4ed1cdcde041cb45a9af37c47c62c7f375cd3f15fc68f1f',
        'scatter_capitalization_vs_trading_value.tsv':
            '46e61c6601da45d056ba281a4c557d1384bc4e0dbb6984f1f96a19655951198c',
        'scatter_capitalization_vs_volume.tsv':
            '19c96bfefeb20559919a25ae57e26d0b42eaa4c5e254c1cb75a5984785976bb8',
        'scatter_lifetime_vs_capitalization.tsv':
            'a28bf0fdbe946fd6555cc0068e7da82a6ea8812025c97c9ac68038a70e47045e',
        'scatter_lifetime_vs_trading_value.tsv':
            'cd2e4d48e6e00bb24f1865c8521056bf13f249b58e8f3e44e82aea81c9da37d6',
        'scatter_lifetime_vs_volume.tsv':
            '4f96153665897a60c5323b8bd27eb1e476ca757e91487b6ccea8fa4d8119ca48',
        'scatter_volume_vs_trading_value.tsv':
            '4c6c82ec4e812d0472046db9eb38cb5155cf21dd0861354ad1cdd0833a6b4183',
    }),
    'intervals_dump': (0, {
        'intervals.tsv':
            'd567608618597008bf5ba04db5a53a1f6baabded92218c39b4618a17f4778589',
        'pdf_q2.tsv':
            'e18abab87197dcf6c650e3987f6d90e57939b6e0b774a005d43171d8fa75a667',
        'pdf_q3.tsv':
            '0ea2e18e63356a76c6d2aff09d9d4c2f3cd163f0b0cd520666777dbede3d09f9',
        'pdf_scaled_q2.tsv':
            'b5694c7d3aeae3aee8691cc61ef3556e4734eb6b276d1e6dd368eab1f38ac28e',
        'pdf_scaled_q3.tsv':
            'ea22a461d83af2d48ff3766b297634bd15652d2472d2ca59559980f572e768d5',
        'pdf_shuffled_q2.tsv':
            'e9417d81f67df2db121bae8f5490d6a84bd0a11033249dbc9248be1134938f64',
        'pdf_shuffled_q3.tsv':
            '1d5478199d110044e1899ffbe8460a7f607d7cf271782f28cc7ff3da24eeb983',
        'report.json':
            'e2dd2040d280f54da8d43fab9dd65d4cbd15bb25c0354fd3b4524fc3d2bc4be2',
    }),
    'intervals_empty': (4, {
        'report.json':
            '067cf3f8e54077a0c091b4a8d371f4698505f231fd0ca4769b1d4740d8249d31',
    }),
    'intervals_price_csv': (4, {
        'report.json':
            '95d89e556ddc3c7c9ff16bc3c53b774643a0a2d03f64fafe24b421b511f8627c',
    }),
    'synth': (0, {
        'S00000.csv':
            '2974048fd76f0c33bf52510101ea82d03355d4a6f12837f789e579e70fc8c323',
        'S00001.csv':
            '06fd17d0c97bb15bd24cc535f21a8416e483fbe25ca4966a8125ee18cc10be5c',
        'S00002.csv':
            'e6a40f9126579035228dc07580fada0162ed33035fc87ba1065c148d705679f7',
        'planted.json':
            '1505231d1389de1e8198ee602ad14ed736af38a973d7ae02e136921da644b9d8',
    }),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_tree_matches_golden(name, tmp_path_factory):
    tmp = tmp_path_factory.getbasetemp() / "golden"
    tmp.mkdir(exist_ok=True)
    code, digests = run_case(name, tmp)
    want_code, want = GOLDEN[name]
    assert code == want_code
    assert sorted(digests) == sorted(want)
    changed = [f for f in want if digests[f] != want[f]]
    assert not changed, f"{name}: bytes changed in {changed}"


if __name__ == "__main__":
    import contextlib
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        with contextlib.redirect_stdout(sys.stderr):
            runs = {name: run_case(name, Path(d)) for name in sorted(CASES)}
    print("GOLDEN = {")
    for name, (code, digests) in runs.items():
        print(f"    {name!r}: ({code}, {{")
        for f, h in digests.items():
            print(f"        {f!r}:\n            {h!r},")
        print("    }),")
    print("}")
