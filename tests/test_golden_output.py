"""Byte-for-byte output of every command that writes JSON.

Each entry is the sha256 of one stdout or ``-o`` file of a fixed pipeline on
the ``data/`` fixtures: the mesh commands on ``disk_linear.json`` and on the
``realize --resolution 4`` meshes of ``fig2.json`` and ``fig4a.json`` (whose
graph has dashed cycles, so ``xi`` writes coordinates) and of three fuzz graphs
with type II and IV vertices and dashed cycles (so ``extract`` writes cyclic
orders read at both kinds of vertex and ``xi`` walks their singular trees), the
graph commands on the fixtures and on the graphs extracted from those meshes, and
``synthesize`` and ``xi`` with targets built from the ``circulation solve``
particular solution.
A change that moves any byte of the CLI's output fails here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from reeb_orbit import cli, serialize
from reeb_orbit.circulation import dashed_cycle_basis
from reeb_orbit.fuzz import random_measured_graph

DATA = Path(__file__).resolve().parents[1] / "src" / "reeb_orbit" / "data"

# random_measured_graph(seed, max_events=8) for these seeds has type II and IV
# vertices and at least one dashed cycle
FUZZ_SEEDS = (40010, 40093, 40097)

GOLDEN = {
    "check disk": (0, "2cb39cabe70b1d7d592eaa698cac990762a1094237c1f2781de68da5b005f7eb"),
    "check fig2 mesh": (0, "2f8a820826059b63318f0b0fadf42cdfa9f31da9676adebce34bd511c0ad5156"),
    "check fig4a mesh": (0, "2cb39cabe70b1d7d592eaa698cac990762a1094237c1f2781de68da5b005f7eb"),
    "check fuzz 40010 mesh": (0, "d1cdf77176a3771b643de7e89b5ebb2f3d84f9a814747152c67390146c20c768"),
    "check fuzz 40093 mesh": (0, "cc10761eee00752ddb219506c9c1d3e841f10504c9de8cb1c35baac04ce69181"),
    "check fuzz 40097 mesh": (0, "2a07a1d5727c782c4ebca24d0dd7077f358c4bb7e43e1286d0c56a2d94eda8c5"),
    "compare fig2 mesh": (1, "6991d201fb93047621f88d98f4794f35df5dfebf74a46e889c4567ee2a774347"),
    "compare fig4a fig4b": (1, "a984b27e2312eba077cb23e238976d2e214b026364fb36590eb23db1926bb676"),
    "error": (2, "45f7ec8c8fc73e0a36851931b2da21c2a97e771343719f8302a670a1470a0dd1"),
    "extract disk": (0, "39954016f454729f5ac040ebbf1d010766a689cb774b7dd7268ab67e8383020a"),
    "extract disk K=16": (0, "7f6352dda9e1ce132a4775f7d7cf32dacf96206367fe7cb5a5cdbcb45ee74539"),
    "extract fig2 mesh": (0, "7e917502d0e1b8c20259a6167030055ff114c71b92445b086421eebdda3e27cd"),
    "extract fig2 mesh K=12": (0, "5971f4c4daffa3c7fabac1ac0e8908739d3cb74109b38e9b4aa2b69680b2d62c"),
    "extract fig4a mesh": (0, "8323b6b5d0abb89de9cd405e86a7e695dc7cb7728961cf827fe8bb9b3c455b68"),
    "extract fuzz 40010 mesh": (0, "b6c75fd139d96e1bd910ab13eabde79a4a0c820cc48ec09e894cbe5d683465b5"),
    "extract fuzz 40093 mesh": (0, "0436cc8efacf0f6cab5fc17c5355d226553cf0115e66997dcded7efd19f7c962"),
    "extract fuzz 40097 mesh": (0, "96c1f4eaaa71ea6bdb1b5cd985957cfa6165ed2292d16898440ff870cd482909"),
    "fuzz": (0, "de68139a84c1474e23debb9ad2ce2a73f4d23fad218f29a09355b1fc146b01bb"),
    "invariants closed_torus": (0, "aed8410c06544faf49d0dc0840f387240513f6433c58b1e51dbe78887cecb837"),
    "invariants disk": (0, "44e5ddb3626dabaeeca0d4a0454b816419decc5a836c85a717ada6e5f3a74bb1"),
    "invariants fig2": (0, "456b1629f3ed49bff2fd4dae691d57615e1b94653a19978d72502c771db7076a"),
    "invariants fig2 mesh": (0, "456b1629f3ed49bff2fd4dae691d57615e1b94653a19978d72502c771db7076a"),
    "invariants fig4a": (0, "ce6d876b9ebae389cd612bbf172d5d8772a1bd9ca6315f38c79266ed4da72515"),
    "invariants fig4b": (0, "b9e3c7b48f931029bbd40255c5100e00eb4d0ee3e3389167c733a1e3699d1b7c"),
    "realize closed_torus": (0, "239ed5540a8e4c9654764f6d027391f66bd7bd6c21a8e8aaee2dc326112b9375"),
    "realize fig2": (0, "d86013f312bb58a988623fa4d13904e6665686dd94ca2e4706821ab3e354c2d4"),
    "realize fig4a": (0, "cda8dafc5c0fc35f7e52bd6930066639a946868c3196e5fdc2b03ad842fa6b62"),
    "realize fuzz 40010": (0, "027bc1833c6648c8c0a7e4ae0c1e78c6be8df9470536d75463c38ddb5f666338"),
    "realize fuzz 40093": (0, "8451beaa20147511e8980bee6c8b94256de843f0de9d5781010f905870d9e120"),
    "realize fuzz 40097": (0, "2f8bbd603d296b3b2a7d335ea3c0bfe6296c89233a181c2057f1435d5c134473"),
    "solve closed_torus": (0, "4a51a62ae74e81ad88d4eb6b3cfc0de828c1536306a820fe910290721a664ddf"),
    "solve disk": (0, "46f640f13e8beea8d1c527d1ce451451fd366f76d77ccf1561f526f430bfd9de"),
    "solve fig2": (0, "5c05d5b86b8ce72751f82d8c3b3701d0b3d1167787a57364c8ea737a7e94258a"),
    "solve fig2 mesh": (0, "95b632eec3e45b4d46d6b26fa75487678ca7f9afd732d8a5188818b6b059ed6a"),
    "solve fig4a": (0, "46f640f13e8beea8d1c527d1ce451451fd366f76d77ccf1561f526f430bfd9de"),
    "solve fig4a mesh": (0, "46f640f13e8beea8d1c527d1ce451451fd366f76d77ccf1561f526f430bfd9de"),
    "solve fig4b": (0, "46f640f13e8beea8d1c527d1ce451451fd366f76d77ccf1561f526f430bfd9de"),
    "solve fuzz 40010 mesh": (0, "b917d76fba14033a0c25512e77447e5431cbf80d420d50fe9cb022d3af87cf9e"),
    "solve fuzz 40093 mesh": (0, "cf2ea172bab25aa943556951029dbc8dbc9c90ebe6a619b810457f6181a0d486"),
    "solve fuzz 40097 mesh": (0, "32855ece91d690b16f8d5cc26fe934b426f9fb91c5a87a5802d6cec3688462eb"),
    "synthesize disk": (0, "60b12af228c5d9bd26d89bfb83624201c7673711e502adcf1e73bb65b94d31e6"),
    "synthesize fig2 mesh": (0, "dacd4a2f36e044cfded28d99078c8b23eff764b807d92f60f2e6d962e26fe494"),
    "synthesize fig4a mesh": (0, "8deea3f93d75557cc11b8292230898184e96afa913a275b8bf5f42060493f8dc"),
    "synthesize fuzz 40010 mesh": (0, "099f6c506f323407d2a3e8c580eee267de31020e6ea6a3231ee2aac3bf52fbf0"),
    "synthesize fuzz 40093 mesh": (0, "bef4a7cd2b14a1428b1747463ee735e8f1ff571dca92c032ff86b4d0aa98f08f"),
    "synthesize fuzz 40097 mesh": (0, "26c77c485c6c45c4379adc75448bae7cbea6dbd1a595802dcb53cc8d15c9a2fc"),
    "validate disk": (0, "c4728b680a8ef4944bb035338bde986547768b2245862b1c458e9cebee4c97b5"),
    "validate fig2 mesh": (0, "eb09fbaf341e280730e51fa29977b3aa7f7ce88af885d9eaa55c00bb053e57a0"),
    "xi disk": (0, "47bd9718b74262ef38ee864c457abe817772b7a5101eb6d77516318f156bda9a"),
    "xi fig2 mesh": (0, "47bd9718b74262ef38ee864c457abe817772b7a5101eb6d77516318f156bda9a"),
    "xi fig4a mesh": (0, "608f949f98d824af4a7cd4396140a07a6214d5ec3d2523661750758b78142820"),
    "xi fuzz 40010 mesh": (0, "7741894215883328f60855c5f69db1972f9f8982a34df463712193a5a2f9d915"),
    "xi fuzz 40093 mesh": (0, "ad1e48e4fa4746a7d2d04ea1f5ace88dff6ab31ef3be4a8d1ebae2afcdef91be"),
    "xi fuzz 40097 mesh": (0, "cccc63a53d30acafe4649d06bfbb054137ecd1cedab5d0bc905fbe534e4c47f3"),
}


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Name -> (exit code, text) of each stdout and ``-o`` file."""
    work = tmp_path_factory.mktemp("golden")
    found = {}

    def stdout(name, *argv):
        found[name] = _run(*argv)
        return found[name][1]

    def written(name, *argv):
        path = work / f"{name}.json"
        code, text = _run(*argv, "-o", path)
        assert text == "", text
        found[name] = code, path.read_text(encoding="utf-8")
        return path

    def synthesis(name, mesh, graph):
        particular = json.loads(stdout(f"solve {name}", "circulation", "solve", graph))["particular"]
        limits = work / f"{name}_limits.json"
        limits.write_text(json.dumps({"circulation": particular}))
        stdout(f"check {name}", "circulation", "check", graph, limits)
        basis = [list(c) for c in dashed_cycle_basis(serialize.load_graph(graph.read_text()))]
        targets = work / f"{name}_targets.json"
        targets.write_text(json.dumps(
            {"circulation": particular, "xi": {"basis": basis, "coords": [0.5] * len(basis)}}
        ))
        form = written(f"synthesize {name}", "synthesize", mesh, graph, targets)
        stdout(f"xi {name}", "xi", mesh, form, graph)

    disk = DATA / "disk_linear.json"
    stdout("validate disk", "validate", disk)
    stdout("extract disk", "extract", disk)
    disk_graph = written("extract disk K=16", "extract", disk, "--samples", 16)
    stdout("invariants disk", "invariants", disk_graph)
    synthesis("disk", disk, disk_graph)

    mesh = written("realize fig2", "realize", DATA / "fig2.json", "--resolution", 4)
    stdout("realize closed_torus", "realize", DATA / "closed_torus.json", "--resolution", 4)
    stdout("validate fig2 mesh", "validate", mesh)
    stdout("extract fig2 mesh", "extract", mesh, "--samples", 16)
    graph = written("extract fig2 mesh K=12", "extract", mesh, "--samples", 12)
    stdout("invariants fig2 mesh", "invariants", graph)
    stdout("compare fig2 mesh", "compare", DATA / "fig2.json", graph)
    synthesis("fig2 mesh", mesh, graph)
    # fig2 and the disk have no dashed cycle, so xi writes no coordinate on them
    mesh = written("realize fig4a", "realize", DATA / "fig4a.json", "--resolution", 4)
    synthesis("fig4a mesh", mesh, written("extract fig4a mesh", "extract", mesh, "--samples", 12))

    for seed in FUZZ_SEEDS:
        graph = work / f"fuzz_{seed}.json"
        graph.write_text(serialize.dumps(serialize.graph_to_dict(random_measured_graph(seed, max_events=8))))
        mesh = written(f"realize fuzz {seed}", "realize", graph, "--resolution", 4)
        graph = written(f"extract fuzz {seed} mesh", "extract", mesh, "--samples", 12)
        synthesis(f"fuzz {seed} mesh", mesh, graph)

    for name in ("closed_torus", "fig2", "fig4a", "fig4b"):
        stdout(f"invariants {name}", "invariants", DATA / f"{name}.json")
        stdout(f"solve {name}", "circulation", "solve", DATA / f"{name}.json")
    stdout("compare fig4a fig4b", "compare", DATA / "fig4a.json", DATA / "fig4b.json")
    stdout("fuzz", "fuzz", "--cases", 2, "--seed", 3)
    stdout("error", "extract", disk, "--samples", 1)
    return found


def test_every_output_is_listed(outputs):
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(outputs, name):
    code, text = outputs[name]
    assert text.endswith("}\n")
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == GOLDEN[name]
